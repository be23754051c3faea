open Distlock_txn

type strategy = Insertion | Two_phase | Serialize

type option_report = {
  strategy : strategy;
  system : System.t;
  concurrency_loss : int;
}

let strategy_name = function
  | Insertion -> "precedence insertion"
  | Two_phase -> "two-phase conversion"
  | Serialize -> "full serialization"

let totalize txn =
  let ext = Distlock_order.Poset.linearize (Txn.order txn) in
  Txn.along txn ext

let advise sys =
  if System.num_txns sys <> 2 then
    invalid_arg "Advisor.advise: not a two-transaction system";
  let db = System.db sys in
  let t1, t2 = System.pair sys in
  let verified_safe candidate =
    (* Theorem 1 suffices for every strategy here: insertion targets
       strong connectivity directly; strong 2PL and identical total orders
       are not guaranteed to make D strongly connected, so fall back to
       the exact two-site test / Lemma 1 oracle via the dispatcher. *)
    match (Checkers.decide candidate).Distlock_engine.Outcome.verdict with
    | Distlock_engine.Outcome.Safe -> true
    | Distlock_engine.Outcome.Unsafe _ | Distlock_engine.Outcome.Unknown _ ->
        false
  in
  let options = ref [] in
  (match Repair.make_safe sys with
  | Some (sys', ins) when ins <> [] ->
      options :=
        {
          strategy = Insertion;
          system = sys';
          concurrency_loss = Repair.concurrency_loss ~before:sys ~after:sys';
        }
        :: !options
  | _ -> ());
  (match (Policy.make_two_phase t1, Policy.make_two_phase t2) with
  | Some t1', Some t2' ->
      let sys' = System.make db [ t1'; t2' ] in
      if verified_safe sys' then
        options :=
          {
            strategy = Two_phase;
            system = sys';
            concurrency_loss = Repair.concurrency_loss ~before:sys ~after:sys';
          }
          :: !options
  | _ -> ());
  (let sys' = System.make db [ totalize t1; totalize t2 ] in
   (* Totalizing each transaction removes all intra-transaction
      concurrency; it helps only when the resulting pictures happen to be
      safe, so verify before offering. *)
   if verified_safe sys' then
     options :=
       {
         strategy = Serialize;
         system = sys';
         concurrency_loss = Repair.concurrency_loss ~before:sys ~after:sys';
       }
       :: !options);
  List.sort
    (fun a b -> compare a.concurrency_loss b.concurrency_loss)
    !options
