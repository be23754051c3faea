(* A deterministic discrete-event clock: a binary min-heap of
   (time, sequence) keyed events. The sequence stamp breaks time ties in
   scheduling order, so two runs that schedule the same events in the
   same order pop them in the same order — the property every seeded
   simulation above this layer leans on. *)

type 'a entry = { time : int; seq : int; v : 'a }

type 'a t = {
  mutable heap : 'a entry array;
  mutable size : int;
  mutable stamp : int;
  mutable now : int;
}

let create () = { heap = [||]; size = 0; stamp = 0; now = 0 }

let now t = t.now

let length t = t.size

let before a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let ensure t filler =
  if t.size = Array.length t.heap then begin
    let cap = max 8 (2 * Array.length t.heap) in
    let h = Array.make cap filler in
    Array.blit t.heap 0 h 0 t.size;
    t.heap <- h
  end

let rec sift_up t i =
  if i > 0 then begin
    let p = (i - 1) / 2 in
    if before t.heap.(i) t.heap.(p) then begin
      let tmp = t.heap.(i) in
      t.heap.(i) <- t.heap.(p);
      t.heap.(p) <- tmp;
      sift_up t p
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let m = ref i in
  if l < t.size && before t.heap.(l) t.heap.(!m) then m := l;
  if r < t.size && before t.heap.(r) t.heap.(!m) then m := r;
  if !m <> i then begin
    let tmp = t.heap.(i) in
    t.heap.(i) <- t.heap.(!m);
    t.heap.(!m) <- tmp;
    sift_down t !m
  end

let at t ~time v =
  let e = { time = max time t.now; seq = t.stamp; v } in
  t.stamp <- t.stamp + 1;
  ensure t e;
  t.heap.(t.size) <- e;
  t.size <- t.size + 1;
  sift_up t (t.size - 1)

let after t ~delay v = at t ~time:(t.now + max 0 delay) v

let pop t =
  if t.size = 0 then None
  else begin
    let top = t.heap.(0) in
    t.size <- t.size - 1;
    if t.size > 0 then begin
      t.heap.(0) <- t.heap.(t.size);
      sift_down t 0
    end;
    t.now <- top.time;
    Some (top.time, top.v)
  end
