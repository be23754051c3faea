open Distlock_txn
open Distlock_sched

type term =
  | Initial of Database.entity
  | Apply of { txn : int; step : int; args : term list }
      (** [F_{txn,step}] applied to the reads of the step's
          within-transaction predecessors (including its own). *)

let initial e = Initial e

let rec equal_term a b =
  match (a, b) with
  | Initial x, Initial y -> x = y
  | Apply a, Apply b ->
      a.txn = b.txn && a.step = b.step
      && List.length a.args = List.length b.args
      && List.for_all2 equal_term a.args b.args
  | Initial _, Apply _ | Apply _, Initial _ -> false

let rec pp_term db ppf = function
  | Initial e -> Format.fprintf ppf "%s0" (Database.name db e)
  | Apply { txn; step; args } ->
      Format.fprintf ppf "f%d_%d(%a)" (txn + 1) step
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ",")
           (pp_term db))
        args

let final_state sys sched =
  let db = System.db sys in
  (* current symbolic value per entity *)
  let value = Hashtbl.create 16 in
  let read e =
    match Hashtbl.find_opt value e with
    | Some t -> t
    | None -> Initial e
  in
  (* temp_{txn,step} of executed update steps *)
  let temp = Hashtbl.create 64 in
  List.iter
    (fun (i, s) ->
      let txn = System.txn sys i in
      let step = Txn.step txn s in
      if Step.is_update step then begin
        let this_read = read step.Step.entity in
        Hashtbl.replace temp (i, s) this_read;
        (* arguments: temps of all same-transaction predecessors that are
           updates and already executed (in any legal schedule all of them
           are), plus this step's own read — in step-index order, as a
           canonical argument list *)
        let args = ref [] in
        for p = Txn.num_steps txn - 1 downto 0 do
          if
            (p = s || Txn.precedes txn p s)
            && Step.is_update (Txn.step txn p)
          then
            match Hashtbl.find_opt temp (i, p) with
            | Some t -> args := t :: !args
            | None -> ()
        done;
        Hashtbl.replace value step.Step.entity
          (Apply { txn = i; step = s; args = !args })
      end)
    (Schedule.events sched);
  List.sort
    (fun (a, _) (b, _) -> compare a b)
    (List.map (fun e -> (e, read e)) (Database.entities db))

let states_equal a b =
  List.length a = List.length b
  && List.for_all2
       (fun (e1, t1) (e2, t2) -> e1 = e2 && equal_term t1 t2)
       a b

let rec permutations = function
  | [] -> [ [] ]
  | l ->
      List.concat_map
        (fun x ->
          List.map
            (fun rest -> x :: rest)
            (permutations (List.filter (( <> ) x) l)))
        l

let equivalent_serial sys sched =
  let target = final_state sys sched in
  let orders = permutations (List.init (System.num_txns sys) Fun.id) in
  List.find_opt
    (fun order ->
      states_equal target (final_state sys (Schedule.serial sys order)))
    orders

let is_serializable sys sched = equivalent_serial sys sched <> None
