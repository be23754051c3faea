type entity = int

type t = {
  mutable names : string array;
  mutable sites : int array;
  mutable count : int;
  index : (string, int) Hashtbl.t;
  mutable max_site : int;
}

let create () =
  {
    names = Array.make 8 "";
    sites = Array.make 8 0;
    count = 0;
    index = Hashtbl.create 16;
    max_site = 0;
  }

let grow t =
  if t.count = Array.length t.names then begin
    let cap = 2 * t.count in
    let names = Array.make cap "" and sites = Array.make cap 0 in
    Array.blit t.names 0 names 0 t.count;
    Array.blit t.sites 0 sites 0 t.count;
    t.names <- names;
    t.sites <- sites
  end

let add t ~name ~site =
  if site < 1 then invalid_arg "Database.add: sites are numbered from 1";
  match Hashtbl.find_opt t.index name with
  | Some id ->
      if t.sites.(id) <> site then
        invalid_arg
          (Printf.sprintf "Database.add: entity %S already stored at site %d"
             name t.sites.(id));
      id
  | None ->
      grow t;
      let id = t.count in
      t.names.(id) <- name;
      t.sites.(id) <- site;
      t.count <- t.count + 1;
      Hashtbl.add t.index name id;
      if site > t.max_site then t.max_site <- site;
      id

let add_all t l = List.iter (fun (name, site) -> ignore (add t ~name ~site)) l

let find t name = Hashtbl.find_opt t.index name

let id_exn t name =
  match find t name with Some id -> id | None -> raise Not_found

let check t e =
  if e < 0 || e >= t.count then invalid_arg "Database: entity id out of range"

let name t e =
  check t e;
  t.names.(e)

let site t e =
  check t e;
  t.sites.(e)

let num_entities t = t.count

let num_sites t = t.max_site

let entities t = List.init t.count Fun.id

let entities_at t s = List.filter (fun e -> t.sites.(e) = s) (entities t)
