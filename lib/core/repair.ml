open Distlock_txn

type insertion = { txn : int; before : int; after : int }

let relation_size txn =
  List.length (Distlock_order.Poset.relation (Txn.order txn))

let concurrency_loss ~before ~after =
  let per i =
    relation_size (System.txn after i) - relation_size (System.txn before i)
  in
  per 0 + per 1

(* Try to realize the arc (a, b) between vertices of [d]: Lx_a < Ux_b in
   T1 and Lx_b < Ux_a in T2. Returns the extended system and the
   insertions actually needed. *)
let try_connect d a b =
  let s = Dgraph.steps d and t1, t2 = System.pair (Dgraph.system d) in
  let need txn a b = if Txn.precedes txn a b then [] else [ (a, b) ] in
  let add1 = need t1 s.lock1.(a) s.unlock1.(b)
  and add2 = need t2 s.lock2.(b) s.unlock2.(a) in
  match (Txn.add_precedences t1 add1, Txn.add_precedences t2 add2) with
  | Some t1', Some t2' ->
      let insertions =
        List.map (fun (a, b) -> { txn = 0; before = a; after = b }) add1
        @ List.map (fun (a, b) -> { txn = 1; before = a; after = b }) add2
      in
      Some (System.make (System.db (Dgraph.system d)) [ t1'; t2' ], insertions)
  | _ -> None

let make_safe sys =
  if System.num_txns sys <> 2 then
    invalid_arg "Repair.make_safe: not a two-transaction system";
  (* Greedy with limited backtracking: at each level try the cheapest few
     consistent insertions; a global budget bounds the search. *)
  let budget = ref (64 * max 1 (Database.num_entities (System.db sys))) in
  let rec loop sys acc rounds =
    decr budget;
    if rounds = 0 || !budget <= 0 then None
    else begin
      let d = Dgraph.build_pair sys in
      if Dgraph.is_strongly_connected d then
        Some (sys, List.rev acc)
      else begin
        (* Precedence relations only grow under insertion, and the arc set
           of D is monotone in them, so any consistent new cross-component
           D-arc is progress toward strong connectivity. Prefer arcs that
           close a condensation cycle (they merge whole component paths),
           then cheapest concurrency loss. *)
        let g = Dgraph.graph d in
        let scc = Distlock_graph.Scc.compute g in
        let cond = Distlock_graph.Scc.condensation g scc in
        let creach = Distlock_graph.Reach.closure cond in
        let component = scc.Distlock_graph.Scc.component in
        let candidates = ref [] in
        for a = 0 to Dgraph.num_vertices d - 1 do
          for b = 0 to Dgraph.num_vertices d - 1 do
            let ca = component.(a) and cb = component.(b) in
            if ca <> cb then
              match try_connect d a b with
              | Some (sys', ins) when ins <> [] ->
                  let closes_cycle = Distlock_graph.Bitset.mem creach.(cb) ca in
                  let cost =
                    ((if closes_cycle then 0 else 1) * 1000)
                    + concurrency_loss ~before:sys ~after:sys'
                  in
                  candidates := (cost, sys', ins) :: !candidates
              | _ -> ()
          done
        done;
        let sorted =
          List.sort (fun (c1, _, _) (c2, _, _) -> compare (c1 : int) c2)
            !candidates
        in
        let rec try_candidates = function
          | [] -> None
          | (_, sys', ins) :: rest -> (
              match loop sys' (ins @ acc) (rounds - 1) with
              | Some _ as r -> r
              | None -> if !budget <= 0 then None else try_candidates rest)
        in
        try_candidates sorted
      end
    end
  in
  (* Insertions keep a well-formed pair well-formed, and cannot mend one
     that is not: such a pair is refused before the search. *)
  if System.validate sys <> [] then None
  else loop sys [] (4 * max 1 (Database.num_entities (System.db sys)))
