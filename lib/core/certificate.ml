open Distlock_txn
open Distlock_sched
open Distlock_geometry
open Distlock_order

type t = {
  ext1 : int array;
  ext2 : int array;
  schedule : Schedule.t;
  below : Database.entity list;
  above : Database.entity list;
}

let verify sys cert =
  Legality.is_legal sys cert.schedule
  && not (Conflict.is_serializable sys cert.schedule)

(* A linear extension that places each focus step as early as possible, in
   the given focus sequence: each focus step is emitted immediately after
   exactly its own not-yet-emitted ancestors (any topological order inside
   the batch), then everything else follows. This is the proof's "place
   the Ux steps as early as possible" — a plain priority-driven Kahn walk
   is NOT enough, because it may emit an unrelated step that only a later
   focus step depends on before an earlier focus step's unlock. *)
let early_extension poset ~focus =
  let n = Poset.size poset in
  let base = Poset.linearize poset in
  let rank = Array.make n 0 in
  Array.iteri (fun i v -> rank.(v) <- i) base;
  let by_rank l = List.sort (fun a b -> compare rank.(a) rank.(b)) l in
  let emitted = Array.make n false in
  let out = ref [] in
  let emit v =
    if not emitted.(v) then begin
      emitted.(v) <- true;
      out := v :: !out
    end
  in
  let emit_with_ancestors target =
    let pending =
      target :: Distlock_graph.Bitset.elements (Poset.down_set poset target)
      |> List.filter (fun v -> not emitted.(v))
    in
    List.iter emit (by_rank pending)
  in
  List.iter emit_with_ancestors focus;
  List.iter emit (by_rank (List.filter (fun v -> not emitted.(v)) (List.init n Fun.id)));
  let ext = Array.of_list (List.rev !out) in
  assert (Poset.is_linear_extension poset ext);
  ext

(* Topological order of the focus steps alone (w.r.t. [poset]), preferring
   smaller [key] when unconstrained: Kahn on the induced subgraph. *)
let order_focus poset focus ~key =
  let arr = Array.of_list focus in
  let m = Array.length arr in
  let g = Distlock_graph.Digraph.create m in
  for i = 0 to m - 1 do
    for j = 0 to m - 1 do
      if i <> j && Poset.precedes poset arr.(i) arr.(j) then
        Distlock_graph.Digraph.add_arc g i j
    done
  done;
  match
    Distlock_graph.Topo.sort_with_priority g ~priority:(fun i -> key arr.(i))
  with
  | Some order -> Array.to_list (Array.map (fun i -> arr.(i)) order)
  | None -> assert false (* induced subgraph of a partial order is acyclic *)

(* A legal schedule of [sys] whose path passes above exactly the
   rectangles chosen by [above], read off the partial orders directly: a
   topological order of both transactions' orders plus, per common
   entity, its two lock sections in the chosen order. Every such schedule
   is a topological order of these constraints, so [None] (a cycle)
   means no schedule of [sys] separates that way. *)
let separating_schedule sys ~above =
  let t1, t2 = System.pair sys in
  let n1 = Txn.num_steps t1 in
  let g = Distlock_graph.Digraph.create (n1 + Txn.num_steps t2) in
  let arc a b = Distlock_graph.Digraph.add_arc g a b in
  List.iter (fun (a, b) -> arc a b) (Poset.covers (Txn.order t1));
  List.iter (fun (a, b) -> arc (n1 + a) (n1 + b)) (Poset.covers (Txn.order t2));
  List.iter
    (fun e ->
      let step f txn = Option.get (f txn e) in
      if above e then arc (n1 + step Txn.unlock_of t2) (step Txn.lock_of t1)
      else arc (step Txn.unlock_of t1) (n1 + step Txn.lock_of t2))
    (System.common_locked sys 0 1);
  Option.map
    (fun order ->
      Schedule.of_events
        (Array.to_list
           (Array.map (fun v -> if v < n1 then (0, v) else (1, v - n1)) order)))
    (Distlock_graph.Topo.sort g)

let construct ~original ~closed ~dominator =
  let t1c, t2c = System.pair closed in
  let in_x e = List.mem e dominator in
  let steps_matching txn pred =
    let acc = ref [] in
    for i = Txn.num_steps txn - 1 downto 0 do
      if pred (Txn.step txn i) then acc := i :: !acc
    done;
    !acc
  in
  let x_unlocks1 =
    steps_matching t1c (fun s -> s.Step.action = Step.Unlock && in_x s.Step.entity)
  in
  let x_locks2 =
    steps_matching t2c (fun s -> s.Step.action = Step.Lock && in_x s.Step.entity)
  in
  (* First sort: Ux (x in X) as early as possible in t1, processed in a
     topological order of the unlocks themselves. *)
  let order1 = Txn.order t1c in
  let focus1 = order_focus order1 x_unlocks1 ~key:(fun _ -> 0) in
  let ext1 = early_extension order1 ~focus:focus1 in
  (* Rank of each X-entity's Ux in ext1 ("if Ux was placed before Ux' in
     t1 we put Lx before Lx' in t2"). *)
  let rank1 = Hashtbl.create 16 in
  Array.iteri
    (fun pos i ->
      let s = Txn.step t1c i in
      if s.Step.action = Step.Unlock && in_x s.Step.entity then
        Hashtbl.replace rank1 s.Step.entity pos)
    ext1;
  (* Second sort: Lx (x in X) as late as possible in t2 — i.e. as early as
     possible in the reversed order — with later-t1-unlocks processed
     first so that the final order of the Lx mirrors the order of the
     Ux in t1. *)
  let order2 = Txn.order t2c in
  let rev2 = Poset.reverse order2 in
  let key2 i =
    let s = Txn.step t2c i in
    -Option.value ~default:0 (Hashtbl.find_opt rank1 s.Step.entity)
  in
  let focus2 = order_focus rev2 x_locks2 ~key:key2 in
  let ext2_rev = early_extension rev2 ~focus:focus2 in
  let ext2 =
    let n = Array.length ext2_rev in
    Array.init n (fun i -> ext2_rev.(n - 1 - i))
  in
  assert (Poset.is_linear_extension order2 ext2);
  (* These extensions also extend the original partial orders (closure only
     added precedences), so the plane is built over the original system. *)
  let plane = Plane.of_extensions original ext1 ext2 in
  let certify plane schedule =
    let bv = Plane.b_vector plane schedule in
    let cert =
      {
        ext1 = Plane.extension plane 0;
        ext2 = Plane.extension plane 1;
        schedule;
        below = List.filter_map (fun (e, b) -> if not b then Some e else None) bv;
        above = List.filter_map (fun (e, b) -> if b then Some e else None) bv;
      }
    in
    if verify original cert then Some cert else None
  in
  let through_picture above () =
    Option.bind (Separation.realize plane ~above) (certify plane)
  in
  (* The two sorts fix the order of the [Ux] in [t1] first and can only
     mirror it in [t2] where the closed [T2] allows; when [T2] orders two
     of the [Lx] against it, the picture may have no separating path even
     though the closed orders admit one. That one is then found directly. *)
  let direct above () =
    Option.bind (separating_schedule closed ~above) (fun schedule ->
        certify
          (Plane.of_extensions original (Schedule.project schedule 0)
             (Schedule.project schedule 1))
          schedule)
  in
  (* Dominator entities below the path (b = 0), the rest above — and the
     mirrored orientation as a fallback. *)
  let below_x e = not (in_x e) in
  match
    List.find_map
      (fun attempt -> attempt ())
      [ through_picture below_x; through_picture in_x; direct below_x ]
  with
  | Some cert -> Ok cert
  | None ->
      Error
        "Certificate.construct: no separating schedule realizable \
         (inputs are not a closed system with a dominator)"

let pp sys ppf cert =
  let db = System.db sys in
  let names es = String.concat ", " (List.map (Database.name db) es) in
  Format.fprintf ppf
    "@[<v>non-serializable schedule:@,  %s@,rectangles below the path: \
     {%s}@,rectangles above the path: {%s}@]"
    (Schedule.to_string sys cert.schedule)
    (names cert.below) (names cert.above)
