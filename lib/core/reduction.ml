open Distlock_txn
open Distlock_sat
open Distlock_graph

type t = {
  formula : Cnf.t;
  dgraph : Dgraph.t;
  upper : Database.entity list; (* cyclic order: u, dummies, c_ij *)
  w_copies : Database.entity array array; (* per var: copies of w_k, primary first *)
  w_neg : Database.entity array; (* per var: w'_k *)
  middle_components : (int * [ `Pos | `Neg ]) array;
      (* one entry per middle SCC: (variable, polarity) *)
}

let system t = Dgraph.system t.dgraph

let formula t = t.formula

let dgraph t = t.dgraph

let num_entities t = Database.num_entities (System.db (system t))

(* ------------------------------------------------------------------ *)
(* Construction                                                        *)

(* [D] with its vertices renamed to entity ids. *)
let entity_digraph dg =
  let ents = Dgraph.entities dg in
  let n = Database.num_entities (System.db (Dgraph.system dg)) in
  let arcs = Digraph.arcs (Dgraph.graph dg) in
  (Digraph.of_arcs n (List.map (fun (a, b) -> (ents.(a), ents.(b))) arcs), ents)

let encode f =
  if not (Cnf.is_restricted f) then
    invalid_arg "Reduction.encode: formula is not in restricted form";
  if f.Cnf.num_vars = 0 || f.Cnf.clauses = [] then
    invalid_arg "Reduction.encode: need at least one variable and one clause";
  let db = Database.create () in
  let next_site = ref 0 in
  let entity name =
    incr next_site;
    Database.add db ~name ~site:!next_site
  in
  (* Upper cycle: u, then per clause literal c{i}_{j}, a dummy before each
     named node and one closing dummy before u. *)
  let u = entity "u" in
  let clause_nodes =
    List.mapi
      (fun i clause ->
        Array.of_list
          (List.mapi (fun j _ -> entity (Printf.sprintf "c%d_%d" i j)) clause))
      f.Cnf.clauses
  in
  let upper_named = u :: List.concat_map Array.to_list clause_nodes in
  let upper =
    (* interleave dummies: n1 d1 n2 d2 ... nk dk (cyclically n1 follows dk) *)
    List.concat
      (List.mapi
         (fun idx n -> [ n; entity (Printf.sprintf "ud%d" idx) ])
         upper_named)
  in
  (* Middle row. *)
  let occ = Cnf.occurrences f in
  let w_copies =
    Array.init f.Cnf.num_vars (fun k ->
        let p, _ = occ.(k) in
        Array.init (max 1 p) (fun c -> entity (Printf.sprintf "w%d_%d" k c)))
  in
  let w_neg =
    Array.init f.Cnf.num_vars (fun k -> entity (Printf.sprintf "wn%d" k))
  in
  (* Lower cycle: v, then z_k, z'_k with dummies. *)
  let v = entity "v" in
  let z = Array.init f.Cnf.num_vars (fun k -> entity (Printf.sprintf "z%d" k)) in
  let zn =
    Array.init f.Cnf.num_vars (fun k -> entity (Printf.sprintf "zn%d" k))
  in
  let lower_named =
    v
    :: List.concat
         (List.init f.Cnf.num_vars (fun k -> [ z.(k); zn.(k) ]))
  in
  let lower =
    List.concat
      (List.mapi
         (fun idx n -> [ n; entity (Printf.sprintf "ld%d" idx) ])
         lower_named)
  in
  (* Intended D arcs. *)
  let arcs = ref [] in
  let arc x y = arcs := (x, y) :: !arcs in
  let cycle nodes =
    let arr = Array.of_list nodes in
    let n = Array.length arr in
    for i = 0 to n - 1 do
      arc arr.(i) arr.((i + 1) mod n)
    done
  in
  cycle upper;
  cycle lower;
  let primaries =
    List.concat
      (List.init f.Cnf.num_vars (fun k -> [ w_copies.(k).(0); w_neg.(k) ]))
  in
  List.iter
    (fun m ->
      arc u m;
      arc m v)
    primaries;
  Array.iter
    (fun copies ->
      if Array.length copies = 2 then begin
        arc copies.(0) copies.(1);
        arc copies.(1) copies.(0)
      end)
    w_copies;
  let d_arcs = !arcs in
  (* Transactions: a lock/unlock pair per entity; skeleton precedences
     realize exactly the arcs of D (Definition 1); completion precedences
     (a)-(c) steer the closure procedure. All precedences in both
     transactions go from a lock step to an unlock step, so no transitive
     consequences arise and D is realized exactly (checked below). *)
  let entities = Database.entities db in
  let steps =
    Array.of_list
      (List.concat_map (fun e -> [ Step.lock e; Step.unlock e ]) entities)
  in
  let labels =
    Array.map
      (fun (s : Step.t) ->
        (if Step.is_lock s then "L" else "U") ^ Database.name db s.Step.entity)
      steps
  in
  (* Entities are numbered from 0 in creation order: Le is step 2e. *)
  let l e = 2 * e and un e = (2 * e) + 1 in
  let t1_arcs = ref [] and t2_arcs = ref [] in
  List.iter
    (fun e ->
      t1_arcs := (l e, un e) :: !t1_arcs;
      t2_arcs := (l e, un e) :: !t2_arcs)
    entities;
  List.iter
    (fun (x, y) ->
      (* arc (x,y) of D: Lx < Uy in T1 and Ly < Ux in T2 *)
      t1_arcs := (l x, un y) :: !t1_arcs;
      t2_arcs := (l y, un x) :: !t2_arcs)
    d_arcs;
  (* Completion (a): per variable. *)
  for k = 0 to f.Cnf.num_vars - 1 do
    let w0 = w_copies.(k).(0) in
    t1_arcs := (l z.(k), un w0) :: !t1_arcs;
    t1_arcs := (l zn.(k), un w_neg.(k)) :: !t1_arcs;
    t2_arcs := (l w0, un zn.(k)) :: !t2_arcs;
    t2_arcs := (l w_neg.(k), un z.(k)) :: !t2_arcs
  done;
  (* Completion (b)/(c): per clause literal, consuming a fresh w-copy per
     positive occurrence. *)
  let next_copy = Array.make f.Cnf.num_vars 0 in
  List.iteri
    (fun i clause ->
      let nodes = List.nth clause_nodes i in
      let len = Array.length nodes in
      List.iteri
        (fun j (lit : Cnf.literal) ->
          let m =
            if lit.Cnf.positive then begin
              let c = next_copy.(lit.Cnf.var) in
              next_copy.(lit.Cnf.var) <- c + 1;
              w_copies.(lit.Cnf.var).(c)
            end
            else w_neg.(lit.Cnf.var)
          in
          t1_arcs := (l m, un nodes.(j)) :: !t1_arcs;
          t2_arcs := (l nodes.((j + 1) mod len), un m) :: !t2_arcs)
        clause)
    f.Cnf.clauses;
  let make_txn name arcs =
    let order =
      match Distlock_order.Poset.of_arcs (Array.length steps) arcs with
      | Some p -> p
      | None -> assert false (* all arcs go lock -> unlock: acyclic *)
    in
    Txn.make ~name ~labels:(Array.copy labels) ~steps:(Array.copy steps) order
  in
  let sys =
    System.make db [ make_txn "T1(F)" !t1_arcs; make_txn "T2(F)" !t2_arcs ]
  in
  let dg = Dgraph.build_pair sys in
  (* Sanity: the realized D equals the intended gadget graph. *)
  let intended = Digraph.of_arcs (Database.num_entities db) d_arcs in
  if not (Digraph.equal intended (fst (entity_digraph dg))) then
    failwith "Reduction.encode: realized D differs from the gadget graph";
  let middle_components =
    Array.of_list
      (List.concat
         (List.init f.Cnf.num_vars (fun k -> [ (k, `Pos); (k, `Neg) ])))
  in
  {
    formula = f;
    dgraph = dg;
    upper;
    w_copies;
    w_neg;
    middle_components;
  }

let intended_digraph t = entity_digraph t.dgraph

(* ------------------------------------------------------------------ *)
(* Dominators <-> assignments                                          *)

let component_entities t (k, pol) =
  match pol with
  | `Pos -> Array.to_list t.w_copies.(k)
  | `Neg -> [ t.w_neg.(k) ]

let dominator_of_assignment t a =
  if Array.length a <> t.formula.Cnf.num_vars then
    invalid_arg "Reduction.dominator_of_assignment: wrong assignment size";
  let middles =
    List.concat
      (List.init t.formula.Cnf.num_vars (fun k ->
           if a.(k) then component_entities t (k, `Pos)
           else component_entities t (k, `Neg)))
  in
  t.upper @ middles

let assignment_of_dominator t x =
  Array.init t.formula.Cnf.num_vars (fun k ->
      List.mem t.w_copies.(k).(0) x)

let dominator_candidates t =
  let rec go chosen comps () =
    match comps with
    | [] ->
        Seq.Cons
          (t.upper @ List.concat_map (component_entities t) chosen, Seq.empty)
    | c :: rest -> Seq.append (go (c :: chosen) rest) (go chosen rest) ()
  in
  go [] (Array.to_list t.middle_components)

let decide_unsafe_by_closure t =
  Closure.first_closing t.dgraph (dominator_candidates t)

let certificate_of_model t a =
  if not (Cnf.eval a t.formula) then Error "not a model of the formula"
  else begin
    let dominator = dominator_of_assignment t a in
    match Closure.close t.dgraph ~dominator with
    | Closure.Failed _ ->
        Error "closure failed on the dominator of a satisfying assignment"
    | Closure.Closed closed ->
        Certificate.construct ~original:(system t) ~closed ~dominator
  end

let sat_via_safety f =
  match Normalize.run f with
  | None -> false (* empty clause: unsatisfiable *)
  | Some { Normalize.formula = g; _ } ->
      if g.Cnf.clauses = [] then true (* vacuously satisfiable *)
      else if g.Cnf.num_vars = 0 then true
      else Option.is_some (decide_unsafe_by_closure (encode g))
