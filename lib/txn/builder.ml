open Distlock_order

type action_spec = [ `Lock of string | `Unlock of string | `Update of string ]

type label_error = Duplicate of string | Unknown of string

type draft = {
  labels : string array;
  actions : Step.action array;
  entities : string array;
  arcs : (int * int) list;
  label_error : label_error option;
}

(* Labels resolve when a block is complete, so an arc may name a step
   declared after it. Only the first error is kept: a duplicate label
   stops the indexing, and the first unknown label the lookups. *)
let draft ~labels ~actions ~entities ~arcs ~chains =
  let index = Hashtbl.create (Array.length labels) in
  let error = ref None in
  Array.iteri
    (fun i l ->
      if Option.is_none !error then
        if Hashtbl.mem index l then error := Some (Duplicate l)
        else Hashtbl.add index l i)
    labels;
  let resolved = ref [] in
  let find l =
    match Hashtbl.find index l with
    | i -> i
    | exception Not_found ->
        error := Some (Unknown l);
        -1
  in
  let pair a b =
    if Option.is_none !error then
      let ia = find a in
      if ia >= 0 then
        let ib = find b in
        if ib >= 0 then resolved := (ia, ib) :: !resolved
  in
  for k = 0 to (Array.length arcs / 2) - 1 do
    pair arcs.(2 * k) arcs.((2 * k) + 1)
  done;
  List.iter
    (fun chain ->
      for k = Array.length chain - 2 downto 0 do
        pair chain.(k) chain.(k + 1)
      done)
    chains;
  { labels; actions; entities; arcs = !resolved; label_error = !error }

let finish db ~name d =
  match d.label_error with
  | Some (Duplicate l) -> Error (Printf.sprintf "duplicate label %S" l)
  | label_error -> (
      let n = Array.length d.labels in
      let steps = Array.make n (Step.lock 0) in
      let rec resolve i =
        if i = n then None
        else
          match Database.find db d.entities.(i) with
          | None -> Some d.entities.(i)
          | Some entity ->
              steps.(i) <- { Step.action = d.actions.(i); entity };
              resolve (i + 1)
      in
      match (resolve 0, label_error) with
      | Some e, _ -> Error (Printf.sprintf "unknown entity %S" e)
      | None, Some (Unknown l) -> Error (Printf.sprintf "unknown step label %S" l)
      | None, _ -> (
          match Poset.of_arcs n d.arcs with
          | None -> Error "cyclic precedence declaration"
          | Some order -> Ok (Txn.make ~name ~labels:d.labels ~steps order)))

let make db ~name ~steps ?(arcs = []) ?(chains = []) () =
  let steps = Array.of_list steps in
  let action = function
    | `Lock _ -> Step.Lock
    | `Unlock _ -> Step.Unlock
    | `Update _ -> Step.Update
  in
  let entity (`Lock e | `Unlock e | `Update e) = e in
  finish db ~name
    (draft ~labels:(Array.map fst steps)
       ~actions:(Array.map (fun (_, spec) -> action spec) steps)
       ~entities:(Array.map (fun (_, spec) -> entity spec) steps)
       ~arcs:(Array.of_list (List.concat_map (fun (a, b) -> [ a; b ]) arcs))
       ~chains:(List.map Array.of_list chains))

let make_exn db ~name ~steps ?arcs ?chains () =
  match make db ~name ~steps ?arcs ?chains () with
  | Ok t -> t
  | Error msg -> invalid_arg (Printf.sprintf "Builder.make (%s): %s" name msg)

let auto_label used spec =
  let base =
    match spec with
    | `Lock n -> "L" ^ n
    | `Unlock n -> "U" ^ n
    | `Update n -> n
  in
  let rec fresh i =
    let candidate = if i = 0 then base else Printf.sprintf "%s#%d" base i in
    if Hashtbl.mem used candidate then fresh (i + 1)
    else begin
      Hashtbl.add used candidate ();
      candidate
    end
  in
  fresh 0

let total db ~name specs =
  let used = Hashtbl.create 16 in
  let steps = List.map (fun spec -> (auto_label used spec, spec)) specs in
  let chain = List.map fst steps in
  make_exn db ~name ~steps ~chains:[ chain ] ()

let locked_sequence db ~name entities =
  total db ~name
    (List.concat_map (fun e -> [ `Lock e; `Update e; `Unlock e ]) entities)

let two_phase_sequence db ~name entities =
  total db ~name
    (List.map (fun e -> `Lock e) entities
    @ List.map (fun e -> `Update e) entities
    @ List.map (fun e -> `Unlock e) entities)
