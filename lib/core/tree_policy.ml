open Distlock_txn

type forest = { db : Database.t; parent : Database.entity option array }

let forest db pairs =
  let n = Database.num_entities db in
  let parent = Array.make n None in
  let rec assign = function
    | [] -> Ok ()
    | (child, par) :: rest -> (
        match (Database.find db child, Database.find db par) with
        | None, _ -> Error (Printf.sprintf "unknown entity %S" child)
        | _, None -> Error (Printf.sprintf "unknown entity %S" par)
        | Some c, Some p ->
            if parent.(c) <> None then
              Error (Printf.sprintf "entity %S has two parents" child)
            else begin
              parent.(c) <- Some p;
              assign rest
            end)
  in
  match assign pairs with
  | Error _ as e -> e
  | Ok () ->
      (* cycle check: walk up from each node *)
      let rec walk seen e =
        if List.mem e seen then Error "cycle in parent relation"
        else
          match parent.(e) with
          | None -> Ok ()
          | Some p -> walk (e :: seen) p
      in
      let rec check e =
        if e >= n then Ok ()
        else match walk [] e with Ok () -> check (e + 1) | Error _ as err -> err
      in
      (match check 0 with Ok () -> Ok { db; parent } | Error m -> Error m)

let forest_exn db pairs =
  match forest db pairs with
  | Ok f -> f
  | Error m -> invalid_arg ("Tree_policy.forest: " ^ m)

let parent f e = f.parent.(e)

let locked_with_sections txn =
  List.filter_map
    (fun e ->
      match (Txn.lock_of txn e, Txn.unlock_of txn e) with
      | Some l, Some u -> Some (e, l, u)
      | _ -> None)
    (Txn.locked_entities txn)

let check_with_first f txn x0 =
  let sections = locked_with_sections txn in
  let section e = List.find_opt (fun (x, _, _) -> x = e) sections in
  let l0 =
    match section x0 with Some (_, l, _) -> l | None -> assert false
  in
  List.concat_map
    (fun (x, lx, _) ->
      if x = x0 then []
      else
        let first_ok = Txn.precedes txn l0 lx in
        let parent_ok =
          match f.parent.(x) with
          | None -> false
          | Some p -> (
              match section p with
              | None -> false
              | Some (_, lp, up) ->
                  Txn.precedes txn lp lx && Txn.precedes txn lx up)
        in
        (if first_ok then [] else [ `Not_after_first x ])
        @ if parent_ok then [] else [ `Parent_not_held x ])
    sections

let violations_for f txn x0 db_name =
  List.map
    (function
      | `Not_after_first x ->
          Printf.sprintf "lock of %s is not preceded by the first lock"
            (db_name x)
      | `Parent_not_held x ->
          Printf.sprintf
            "entity %s is locked without its parent being held" (db_name x))
    (check_with_first f txn x0)

let candidates_first txn =
  (* entities whose lock precedes every other lock *)
  let sections = locked_with_sections txn in
  List.filter_map
    (fun (x, lx, _) ->
      if
        List.for_all
          (fun (y, ly, _) -> y = x || Txn.precedes txn lx ly)
          sections
      then Some x
      else None)
    sections

let first_entity f txn =
  List.find_opt
    (fun x0 -> check_with_first f txn x0 = [])
    (candidates_first txn)

let follows f txn =
  match locked_with_sections txn with
  | [] -> true
  | _ -> first_entity f txn <> None

let violations f txn =
  match locked_with_sections txn with
  | [] -> []
  | _ -> (
      if follows f txn then []
      else
        match candidates_first txn with
        | [] -> [ "no lock precedes all other locks (no first entity)" ]
        | x0 :: _ -> violations_for f txn x0 (Database.name f.db))

let random_protocol_txn rng db f ~name ?(cross_prob = 0.3) () =
  let n = Database.num_entities db in
  if n = 0 then invalid_arg "Tree_policy.random_protocol_txn: empty database";
  let x0 = Random.State.int rng n in
  (* children lists *)
  let children = Array.make n [] in
  Array.iteri
    (fun c p -> match p with Some p -> children.(p) <- c :: children.(p) | None -> ())
    f.parent;
  (* grow a random connected subtree below x0 *)
  let chosen = ref [ x0 ] in
  let frontier = ref children.(x0) in
  while List.length !chosen < 4 && !frontier <> [] do
    let arr = Array.of_list !frontier in
    let pick = arr.(Random.State.int rng (Array.length arr)) in
    chosen := pick :: !chosen;
    frontier :=
      children.(pick) @ List.filter (fun e -> e <> pick) !frontier
  done;
  let chosen = List.rev !chosen in
  (* steps: L e, U e per chosen entity *)
  let index = Hashtbl.create 8 in
  let steps = ref [] and labels = ref [] and count = ref 0 in
  List.iter
    (fun e ->
      Hashtbl.replace index (`L e) !count;
      steps := Step.lock e :: !steps;
      labels := ("L" ^ Database.name db e) :: !labels;
      incr count;
      Hashtbl.replace index (`U e) !count;
      steps := Step.unlock e :: !steps;
      labels := ("U" ^ Database.name db e) :: !labels;
      incr count)
    chosen;
  let total = !count in
  let steps = Array.of_list (List.rev !steps) in
  let labels = Array.of_list (List.rev !labels) in
  let l e = Hashtbl.find index (`L e) and u e = Hashtbl.find index (`U e) in
  (* protocol arcs *)
  let protocol_arcs = ref [] in
  List.iter
    (fun e ->
      protocol_arcs := (l e, u e) :: !protocol_arcs;
      if e <> x0 then begin
        protocol_arcs := (l x0, l e) :: !protocol_arcs;
        match f.parent.(e) with
        | Some p when List.mem p chosen ->
            protocol_arcs := (l p, l e) :: (l e, u p) :: !protocol_arcs
        | _ -> ()
      end)
    chosen;
  (* base linear order extending the protocol arcs (random Kahn walk) *)
  let g = Distlock_graph.Digraph.of_arcs total !protocol_arcs in
  let indeg = Array.init total (Distlock_graph.Digraph.in_degree g) in
  let placed = Array.make total false in
  let base = Array.make total (-1) in
  for depth = 0 to total - 1 do
    let avail = ref [] in
    for v = 0 to total - 1 do
      if (not placed.(v)) && indeg.(v) = 0 then avail := v :: !avail
    done;
    let arr = Array.of_list !avail in
    let v = arr.(Random.State.int rng (Array.length arr)) in
    placed.(v) <- true;
    base.(depth) <- v;
    Distlock_graph.Digraph.iter_succ g v (fun w -> indeg.(w) <- indeg.(w) - 1)
  done;
  (* per-site chains + random cross arcs from the base order *)
  let site_of i = Database.site db steps.(i).Step.entity in
  let arcs = ref !protocol_arcs in
  let last_at_site = Hashtbl.create 8 in
  Array.iter
    (fun i ->
      let s = site_of i in
      (match Hashtbl.find_opt last_at_site s with
      | Some prev -> arcs := (prev, i) :: !arcs
      | None -> ());
      Hashtbl.replace last_at_site s i)
    base;
  for a = 0 to total - 1 do
    for b = a + 1 to total - 1 do
      let i = base.(a) and j = base.(b) in
      if site_of i <> site_of j && Random.State.float rng 1.0 < cross_prob then
        arcs := (i, j) :: !arcs
    done
  done;
  let order =
    match Distlock_order.Poset.of_arcs total !arcs with
    | Some p -> p
    | None -> assert false
  in
  Txn.make ~name ~labels ~steps order
