(* A growable array. The parser keeps one per kind of item and empties
   it for each block, so the storage is reused. *)
type 'a vec = { mutable items : 'a array; mutable len : int }

let vec () = { items = [||]; len = 0 }

let push v x =
  if v.len = Array.length v.items then begin
    let items = Array.make (max 8 (2 * v.len)) x in
    Array.blit v.items 0 items 0 v.len;
    v.items <- items
  end;
  v.items.(v.len) <- x;
  v.len <- v.len + 1

let contents v = Array.sub v.items 0 v.len

(* One pass over the text. A line's tokens are slices of [text]
   ([starts], [lens]), split at spaces and tabs up to the line's first
   [#]; keywords are compared in place, and only names become strings.
   A block's labels resolve at its [}], and entity names once every
   line is read, so both forward references stay legal. The first line
   error ends the scan: it wins over every later check. *)
let system_of_string text =
  let db = Database.create () in
  let n = String.length text in
  let starts = vec () and lens = vec () in
  let tok k = String.sub text starts.items.(k) lens.items.(k) in
  let is k word =
    let s = starts.items.(k) and l = String.length word in
    lens.items.(k) = l
    &&
    let rec same i =
      i = l
      || String.unsafe_get text (s + i) = String.unsafe_get word i
         && same (i + 1)
    in
    same 0
  in
  let block = ref None in
  let labels = vec () and actions = vec () and entities = vec () in
  let arcs = vec () and chains = ref [] in
  let drafts = ref [] in
  let error = ref None and line = ref 0 in
  let fail msg = error := Some (Printf.sprintf "line %d: %s" !line msg) in
  let unexpected () = fail ("unexpected token " ^ tok 0) in
  let step action =
    push labels (tok 1);
    push actions action;
    push entities (tok 3)
  in
  let read_line () =
    let ntok = starts.len in
    if ntok > 0 then
      match !block with
      | None ->
          if ntok = 4 && is 0 "entity" && is 2 "@" then (
            match int_of_string_opt (tok 3) with
            | Some site when site >= 1 -> (
                let name = tok 1 in
                match Database.find db name with
                | Some e when Database.site db e <> site ->
                    fail
                      (Printf.sprintf "entity %S already stored at site %d"
                         name (Database.site db e))
                | _ -> ignore (Database.add db ~name ~site))
            | _ -> fail "bad site number")
          else if ntok = 3 && is 0 "txn" && is 2 "{" then begin
            block := Some (tok 1);
            labels.len <- 0;
            actions.len <- 0;
            entities.len <- 0;
            arcs.len <- 0;
            chains := []
          end
          else unexpected ()
      | Some name ->
          if ntok = 1 && is 0 "}" then begin
            let d =
              Builder.draft ~labels:(contents labels)
                ~actions:(contents actions) ~entities:(contents entities)
                ~arcs:(contents arcs) ~chains:(List.rev !chains)
            in
            drafts := (name, d) :: !drafts;
            block := None
          end
          else if ntok = 4 && is 0 "step" then
            if is 2 "lock" then step Step.Lock
            else if is 2 "unlock" then step Step.Unlock
            else if is 2 "update" then step Step.Update
            else fail ("unknown action " ^ tok 2)
          else if ntok = 4 && is 0 "arc" && is 2 "->" then begin
            push arcs (tok 1);
            push arcs (tok 3)
          end
          else if ntok >= 3 && is 0 "chain" then
            chains := Array.init (ntok - 1) (fun k -> tok (k + 1)) :: !chains
          else unexpected ()
  in
  let token start stop =
    if start >= 0 then begin
      push starts start;
      push lens (stop - start)
    end
  in
  (* Splits the line from [i] into tokens and returns where it ends:
     at its newline, or at [n]. *)
  let rec tokens i start =
    if i = n then begin
      token start i;
      n
    end
    else
      match String.unsafe_get text i with
      | '\n' ->
          token start i;
          i
      | '#' -> (
          token start i;
          match String.index_from text i '\n' with
          | eol -> eol
          | exception Not_found -> n)
      | ' ' | '\t' ->
          token start i;
          tokens (i + 1) (-1)
      | _ -> tokens (i + 1) (if start < 0 then i else start)
  in
  let rec lines pos =
    incr line;
    starts.len <- 0;
    lens.len <- 0;
    let eol = tokens pos (-1) in
    read_line ();
    if Option.is_none !error && eol < n then lines (eol + 1)
  in
  lines 0;
  match !error with
  | Some msg -> Error msg
  | None when Option.is_some !block -> Error "unterminated txn block"
  | None -> (
      let rec finish acc = function
        | [] -> Ok (List.rev acc)
        | (name, d) :: rest -> (
            match Builder.finish db ~name d with
            | Ok t -> finish (t :: acc) rest
            | Error m -> Error (Printf.sprintf "txn %s: %s" name m))
      in
      match finish [] (List.rev !drafts) with
      | Error m -> Error m
      | Ok [] -> Error "no transactions"
      | Ok txns -> (
          (* The first block whose name an earlier block took. *)
          let seen = Hashtbl.create 16 in
          let taken t =
            let n = Txn.name t in
            Hashtbl.mem seen n || (Hashtbl.add seen n (); false)
          in
          match List.find_opt taken txns with
          | Some t ->
              Error (Printf.sprintf "duplicate transaction name %S" (Txn.name t))
          | None -> Ok (System.make db txns)))

let system_to_string sys =
  let db = System.db sys in
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  List.iter
    (fun e -> pf "entity %s @ %d\n" (Database.name db e) (Database.site db e))
    (Database.entities db);
  Array.iter
    (fun txn ->
      pf "\ntxn %s {\n" (Txn.name txn);
      for i = 0 to Txn.num_steps txn - 1 do
        let s = Txn.step txn i in
        let action =
          match s.Step.action with
          | Step.Lock -> "lock"
          | Step.Unlock -> "unlock"
          | Step.Update -> "update"
        in
        pf "  step %s %s %s\n" (Txn.label txn i) action
          (Database.name db s.Step.entity)
      done;
      List.iter
        (fun (a, b) -> pf "  arc %s -> %s\n" (Txn.label txn a) (Txn.label txn b))
        (Distlock_order.Poset.covers (Txn.order txn));
      pf "}\n")
    (System.txns sys);
  Buffer.contents buf
