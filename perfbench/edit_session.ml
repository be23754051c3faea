(* edit-session: one incremental session absorbing a stream of edits,
   the pair pipeline of check-poly under writes.

   The base is 256 two-phase transactions of two entities each, drawn
   from 1024 entities on two sites, so the conflict graph is
   subcritical. Each request makes one edit ([replace_txn], [remove_txn]
   or [add_txn]) and calls [decide_delta]. Every tenth edit swaps in a
   non-two-phase transaction that locks, in turn, the two entities
   another transaction holds: the pair is unsafe by construction, and
   the next edit reverts it. Everything else is two-phase, hence safe. *)

open Distlock_txn
open Distlock_core
open Common

type edit = Replace of string * Txn.t | Remove of string | Add of Txn.t

let generate ~seed ~requests =
  let rng = Random.State.make [| seed; 0xED |] in
  let db = Txn_gen.random_database rng ~num_entities:2048 ~num_sites:2 in
  let pool = Array.of_list (Database.entities db) in
  let pair () =
    let a = Random.State.int rng (Array.length pool) in
    let b = (a + 1 + Random.State.int rng (Array.length pool - 1)) mod Array.length pool in
    [ Database.name db pool.(a); Database.name db pool.(b) ]
  in
  let serial = ref 0 in
  let two_phase ?name () =
    let name =
      match name with
      | Some n -> n
      | None ->
          incr serial;
          Printf.sprintf "T%d" !serial
    in
    Builder.two_phase_sequence db ~name (pair ())
  in
  let base = List.init 256 (fun _ -> two_phase ()) in
  (* The names the session will hold, mirrored here to choose targets. *)
  let live = Hashtbl.create 512 in
  let names = ref (Array.of_list (List.map Txn.name base)) in
  List.iter (fun t -> Hashtbl.replace live (Txn.name t) t) base;
  let any () = !names.(Random.State.int rng (Array.length !names)) in
  let drop n =
    Hashtbl.remove live n;
    names := Array.of_list (List.filter (( <> ) n) (Array.to_list !names))
  in
  let broken = ref None in
  let edits =
    Array.init requests (fun i ->
        match (i mod 10, !broken) with
        | 9, _ ->
            let k = any () in
            let rec other () = let j = any () in if j = k then other () else j in
            let held = Hashtbl.find live (other ()) in
            let ents = List.map (Database.name db) (Txn.locked_entities held) in
            broken := Some (Hashtbl.find live k);
            (Replace (k, Builder.locked_sequence db ~name:k ents), false)
        | 0, Some original ->
            broken := None;
            (Replace (Txn.name original, original), true)
        | phase, _ -> (
            match phase mod 3 with
            | 1 ->
                let k = any () in
                drop k;
                (Remove k, true)
            | 2 ->
                let t = two_phase () in
                Hashtbl.replace live (Txn.name t) t;
                names := Array.append !names [| Txn.name t |];
                (Add t, true)
            | _ ->
                let k = any () in
                let t = two_phase ~name:k () in
                Hashtbl.replace live k t;
                (Replace (k, t), true)))
  in
  (System.make db base, edits)

let prepare ~seed ~requests =
  let base, edits = generate ~seed ~requests in
  let fresh () =
    let session = Incremental.of_system base in
    ignore (Incremental.decide_delta session);
    let pairs_total = ref 0 and reused = ref 0 and redecided = ref 0 in
    let cycles_total = ref 0 and rejudged = ref 0 and unsafe = ref 0 in
    let request i =
      let edit, expect_safe = edits.(i) in
      span "incremental.edit" (fun () ->
          match edit with
          | Replace (k, t) -> Incremental.replace_txn session k t
          | Remove k -> Incremental.remove_txn session k
          | Add t -> Incremental.add_txn session t);
      let o = span "incremental.decide" (fun () -> Incremental.decide_delta session) in
      let out =
        span "render" (fun () ->
            (match o.Incremental.verdict with
            | Incremental.Safe -> "SAFE"
            | Incremental.Unsafe r -> "UNSAFE — " ^ Decision.describe_multi (Incremental.system session) r
            | Incremental.Unknown m -> "UNKNOWN — " ^ m)
            ^ Printf.sprintf "\n  pairs: %d reused, %d re-decided; cycles: %d reused, %d re-judged\n"
                o.Incremental.pairs_reused o.Incremental.pairs_redecided
                o.Incremental.cycles_reused o.Incremental.cycles_rejudged)
      in
      fun () ->
        ignore (Sys.opaque_identity out);
        pairs_total := !pairs_total + o.Incremental.pairs_total;
        reused := !reused + o.Incremental.pairs_reused;
        redecided := !redecided + o.Incremental.pairs_redecided;
        cycles_total := !cycles_total + o.Incremental.cycles_total;
        rejudged := !rejudged + o.Incremental.cycles_rejudged;
        match o.Incremental.verdict with
        | Incremental.Safe -> expect_safe
        | Incremental.Unsafe r ->
            incr unsafe;
            (not expect_safe) && Known.multi_witness (Incremental.system session) r = Some true
        | Incremental.Unknown _ -> false
    in
    let counts () =
      [ ("requests", requests); ("unsafe_verdicts", !unsafe); ("pairs_total", !pairs_total);
        ("pairs_reused", !reused); ("pairs_redecided", !redecided);
        ("cycles_total", !cycles_total); ("cycles_rejudged", !rejudged) ]
    in
    let layers () =
      [ ("incremental.pairs_redecided", float_of_int !redecided);
        ("incremental.pair_reuse_frac", float_of_int !reused /. float_of_int (max 1 !pairs_total));
        ("incremental.cycles_rejudged", float_of_int !rejudged) ]
    in
    { request; counts; layers }
  in
  { requests = Array.length edits; fresh }

let workload =
  { name = "edit-session"; prepare; round_requests = 500; warmup_requests = 50; setups = 15 }
