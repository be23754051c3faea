(* Reference parser for the differential properties in test_txn.ml: the
   list-based reader the library's one-pass scanner replaced. It splits
   the text into lines and each line into tokens, collects each block's
   steps, arcs and chains as lists, and resolves a block's labels and
   entities only once every line has been read, through a label
   [Hashtbl] and [Result] folds. The scanner must give the same system
   (fingerprint and labels) or the same error text on every input. *)

open Distlock_txn
open Distlock_order

type action_spec = [ `Lock of string | `Unlock of string | `Update of string ]

let resolve db spec =
  let entity name =
    match Database.find db name with
    | Some e -> Ok e
    | None -> Error (Printf.sprintf "unknown entity %S" name)
  in
  match spec with
  | `Lock n -> Result.map Step.lock (entity n)
  | `Unlock n -> Result.map Step.unlock (entity n)
  | `Update n -> Result.map Step.update (entity n)

(* The checks run in this order: duplicate labels, unknown entities,
   unknown labels in arcs, unknown labels in chains (each chain's pairs
   from the last back), a cycle. *)
let build db ~name ~steps ~arcs ~chains =
  let ( let* ) = Result.bind in
  let labels = Array.of_list (List.map fst steps) in
  let index = Hashtbl.create 16 in
  let* () =
    List.fold_left
      (fun acc (i, l) ->
        let* () = acc in
        if Hashtbl.mem index l then Error (Printf.sprintf "duplicate label %S" l)
        else begin
          Hashtbl.add index l i;
          Ok ()
        end)
      (Ok ())
      (List.mapi (fun i (l, _) -> (i, l)) steps)
  in
  let* step_array =
    List.fold_left
      (fun acc (_, spec) ->
        let* l = acc in
        let* s = resolve db spec in
        Ok (s :: l))
      (Ok []) steps
  in
  let step_array = Array.of_list (List.rev step_array) in
  let lookup l =
    match Hashtbl.find_opt index l with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "unknown step label %S" l)
  in
  let* arc_list =
    List.fold_left
      (fun acc (a, b) ->
        let* l = acc in
        let* ia = lookup a in
        let* ib = lookup b in
        Ok ((ia, ib) :: l))
      (Ok []) arcs
  in
  let* chain_arcs =
    List.fold_left
      (fun acc chain ->
        let* l = acc in
        let rec pairs = function
          | a :: (b :: _ as rest) ->
              let* tl = pairs rest in
              let* ia = lookup a in
              let* ib = lookup b in
              Ok ((ia, ib) :: tl)
          | _ -> Ok []
        in
        let* ps = pairs chain in
        Ok (ps @ l))
      (Ok []) chains
  in
  match Poset.of_arcs (Array.length step_array) (arc_list @ chain_arcs) with
  | None -> Error "cyclic precedence declaration"
  | Some order -> Ok (Txn.make ~name ~labels ~steps:step_array order)

let tokens line =
  String.split_on_char ' ' line
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

type block = {
  name : string;
  mutable steps : (string * action_spec) list; (* reversed *)
  mutable arcs : (string * string) list;
  mutable chains : string list list;
}

let system_of_string text =
  let db = Database.create () in
  let blocks = ref [] in
  let current = ref None in
  let error = ref None in
  let fail lineno msg =
    if !error = None then error := Some (Printf.sprintf "line %d: %s" lineno msg)
  in
  let lines = String.split_on_char '\n' text in
  List.iteri
    (fun idx line ->
      let lineno = idx + 1 in
      let line =
        match String.index_opt line '#' with
        | Some i -> String.sub line 0 i
        | None -> line
      in
      match (tokens line, !current) with
      | [], _ -> ()
      | [ "entity"; name; "@"; site ], None -> (
          match int_of_string_opt site with
          | Some s when s >= 1 -> (
              match Database.find db name with
              | Some e when Database.site db e <> s ->
                  fail lineno
                    (Printf.sprintf "entity %S already stored at site %d" name
                       (Database.site db e))
              | _ -> ignore (Database.add db ~name ~site:s))
          | _ -> fail lineno "bad site number")
      | [ "txn"; name; "{" ], None ->
          current := Some { name; steps = []; arcs = []; chains = [] }
      | [ "}" ], Some b ->
          blocks := b :: !blocks;
          current := None
      | [ "step"; label; action; entity ], Some b -> (
          let spec =
            match action with
            | "lock" -> Some (`Lock entity)
            | "unlock" -> Some (`Unlock entity)
            | "update" -> Some (`Update entity)
            | _ -> None
          in
          match spec with
          | Some spec -> b.steps <- (label, spec) :: b.steps
          | None -> fail lineno ("unknown action " ^ action))
      | [ "arc"; a; "->"; c ], Some b -> b.arcs <- (a, c) :: b.arcs
      | "chain" :: (_ :: _ :: _ as labels), Some b ->
          b.chains <- labels :: b.chains
      | tok :: _, _ -> fail lineno ("unexpected token " ^ tok))
    lines;
  if !current <> None then
    (if !error = None then error := Some "unterminated txn block");
  match !error with
  | Some msg -> Error msg
  | None -> (
      let build b =
        build db ~name:b.name ~steps:(List.rev b.steps) ~arcs:(List.rev b.arcs)
          ~chains:(List.rev b.chains)
      in
      let rec build_all acc = function
        | [] -> Ok (List.rev acc)
        | b :: rest -> (
            match build b with
            | Ok t -> build_all (t :: acc) rest
            | Error m -> Error (Printf.sprintf "txn %s: %s" b.name m))
      in
      match build_all [] (List.rev !blocks) with
      | Error m -> Error m
      | Ok [] -> Error "no transactions"
      | Ok txns -> (
          let rec duplicate seen = function
            | [] -> None
            | t :: rest ->
                let n = Txn.name t in
                if List.mem n seen then Some n else duplicate (n :: seen) rest
          in
          match duplicate [] txns with
          | Some n -> Error (Printf.sprintf "duplicate transaction name %S" n)
          | None -> Ok (System.make db txns)))
