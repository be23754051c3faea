(* The fault-configuration layer: everything that distinguishes one
   simulated deployment from another, bundled so the engine, CLI, and
   bench describe runs with the same value. *)

open Distlock_txn

type backend_kind = Instant | Leased | Bakery

type t = {
  backend : backend_kind;
  latency : Latency.t;
  lease_ttl : int option;  (** leased backend only; [None] = default *)
  crash_rate : float;  (** per-step crash probability, [0., 1.] *)
  down_time : int;  (** ticks a crashed worker stays unresponsive *)
  max_aborts : int;
}

let default_ttl = 16

let default =
  {
    backend = Instant;
    latency = Latency.none;
    lease_ttl = None;
    crash_rate = 0.;
    down_time = 16;
    max_aborts = 1000;
  }

let fault_free t = t.crash_rate <= 0.

(* Only the leased backend's locks expire; instant and bakery are the
   same table without a TTL. *)
let make_backend t db =
  Backend.create db
    ~ttl:
      (match t.backend with
      | Leased -> Some (Option.value t.lease_ttl ~default:default_ttl)
      | Instant | Bakery -> None)

let backend_to_string = function
  | Instant -> "instant"
  | Leased -> "leased"
  | Bakery -> "bakery"

(* Each name is spelled once, above; "lease" is also accepted. *)
let backend_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "lease" -> Ok Leased
  | s -> (
      match
        List.find_opt
          (fun k -> backend_to_string k = s)
          [ Instant; Leased; Bakery ]
      with
      | Some k -> Ok k
      | None -> Error (Printf.sprintf "unknown backend %S" s))

let to_attrs t =
  let open Distlock_obs in
  [
    Attr.str "backend" (backend_to_string t.backend);
    Attr.str "latency" (Latency.to_string t.latency);
    Attr.int "lease_ttl"
      (match t.lease_ttl with Some n -> n | None -> default_ttl);
    Attr.float "crash_rate" t.crash_rate;
    Attr.int "down_time" t.down_time;
  ]

(* Rebuild the system's database so its entities spread over [sites]
   sites round-robin by id, keeping names and transaction structure.
   Lets a single-site fixture exercise cross-site latency without
   editing the input file. *)
let spread_sites sys ~sites =
  if sites < 1 then invalid_arg "Scenario.spread_sites";
  let db = System.db sys in
  let db' = Database.create () in
  List.iter
    (fun e ->
      ignore
        (Database.add db' ~name:(Database.name db e) ~site:(1 + (e mod sites))))
    (Database.entities db);
  System.make db' (Array.to_list (System.txns sys))
