open Distlock_txn

type verdict = Safe | Unsafe of Certificate.t

let decide_dgraph d =
  if Dgraph.is_strongly_connected d then Safe
  else begin
    (* Theorem 2's only-if direction: any dominator closes (Lemma 3) and
       yields a certificate. *)
    let x =
      match Distlock_graph.Dominator.find (Dgraph.graph d) with
      | Some x -> x
      | None -> assert false (* not strongly connected -> dominator exists *)
    in
    let dominator = Dgraph.entity_set d x in
    match Closure.close d ~dominator with
    | Closure.Failed _ ->
        (* Impossible on two sites by Lemma 3. *)
        failwith "Twosite.decide: closure failed on a two-site system"
    | Closure.Closed closed -> (
        match
          Certificate.construct ~original:(Dgraph.system d) ~closed ~dominator
        with
        | Ok cert -> Unsafe cert
        | Error msg -> failwith ("Twosite.decide: " ^ msg))
  end

let decide sys =
  if System.num_txns sys <> 2 then
    invalid_arg "Twosite.decide: not a two-transaction system";
  let sites = List.length (System.sites_used sys) in
  if sites > 2 then
    Printf.ksprintf invalid_arg
      "Twosite.decide: system uses %d sites (at most two allowed by \
       Theorem 2)"
      sites;
  decide_dgraph (Dgraph.build_pair sys)

let is_safe sys = match decide sys with Safe -> true | Unsafe _ -> false
