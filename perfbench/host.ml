(* The host's speed, measured beside the program.

   The shared machine these figures come from slows every computation
   by up to 2x, in spells from a fraction of a second to minutes; the
   thread's CPU time grows with its wall time in them, so they are not
   descheduling. A fixed step of array work runs after every request,
   outside the request's timing; its time against [step_s], its time at
   full speed, is the host's slowdown at that moment. The step allocates
   nothing, so it neither triggers nor pays for the program's garbage
   collection, and it runs once before the clock starts, so what the
   program left in the caches and branch predictors does not change its
   time: no change to distlock can speed it up or slow it down. *)

(* About one step's time at full speed on the 2-vCPU Xeon VM the
   figures in WORKLOADS.md come from. Only the unit of the scaled figures
   depends on it. *)
let step_s = 1.0e-4

let keys = Array.init 4096 (fun i -> (i * 2654435761) land 0xFFFFFF)
let table = Array.make 2048 (-1)
let order = Array.make 1024 0
let bytes = Bytes.create 32768
let walk = Array.init 4096 (fun i -> ((i * 1021) + 7) land 4095)

(* Open-addressing inserts, a shell sort, a byte fill and scattered
   reads: branches and memory traffic like the program's own code,
   without its allocation. *)
let work () =
  Array.fill table 0 2048 (-1);
  for i = 0 to 1023 do
    let k = keys.(i) in
    let h = ref (((k * 0x9E3779B1) lsr 7) land 2047) in
    while table.(!h) <> -1 && table.(!h) <> k do
      h := (!h + 1) land 2047
    done;
    table.(!h) <- k
  done;
  Array.blit keys 1024 order 0 1024;
  let gap = ref 511 in
  while !gap > 0 do
    let g = !gap in
    for i = g to 1023 do
      let x = order.(i) in
      let j = ref i in
      while !j >= g && order.(!j - g) > x do
        order.(!j) <- order.(!j - g);
        j := !j - g
      done;
      order.(!j) <- x
    done;
    gap := g / 2
  done;
  Bytes.fill bytes 0 32768 'x';
  let acc = ref 0 in
  for i = 0 to 4095 do
    let j = walk.(i) in
    if Bytes.get bytes ((j * 7) land 32767) = 'x' then acc := !acc + table.(j land 2047)
    else decr acc
  done;
  ignore (Sys.opaque_identity (!acc + order.(0)))

(* The step runs once untimed, to load its data into the caches and
   train the branch predictors, and once timed. *)
let step () =
  work ();
  let t0 = Common.now () in
  work ();
  Common.now () -. t0

(* The slowdown over [steps] steps that took [seconds] in all. *)
let slowdown ~steps seconds = seconds /. (float_of_int steps *. step_s)
