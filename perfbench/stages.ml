(* Per-stage tallies of the engine's top-level pipeline runs, read off
   the outcome traces [Decision.decide] returns. Cache hits ran no
   stage. *)

module E = Distlock_engine

type t = { runs : (string, int) Hashtbl.t; decided : (string, int) Hashtbl.t }

let create () = { runs = Hashtbl.create 8; decided = Hashtbl.create 8 }
let get tbl k = Option.value (Hashtbl.find_opt tbl k) ~default:0
let bump tbl k = Hashtbl.replace tbl k (1 + get tbl k)

let record t (o : _ E.Outcome.t) =
  if not o.E.Outcome.cached then
    List.iter
      (fun (st : E.Outcome.stage_trace) ->
        bump t.runs st.E.Outcome.stage;
        if st.E.Outcome.status = E.Outcome.Decided then bump t.decided st.E.Outcome.stage)
      o.E.Outcome.trace

(* Child spans of a traced [Decision.decide]: one per stage it ran. *)
let children (o : _ E.Outcome.t) =
  if o.E.Outcome.cached then []
  else
    List.map
      (fun (st : E.Outcome.stage_trace) -> ("stage." ^ st.E.Outcome.stage, st.E.Outcome.seconds))
      o.E.Outcome.trace

(* The polynomial stages the per-layer table names. *)
let names = [ "trivial"; "theorem1"; "two-site"; "geometric"; "multisite" ]

let counts t =
  Hashtbl.fold (fun k _ acc -> k :: acc) t.runs []
  |> List.sort compare
  |> List.concat_map (fun s ->
         [ ("stage." ^ s ^ ".runs", get t.runs s); ("stage." ^ s ^ ".decided", get t.decided s) ])

let layers t eng =
  let st = Distlock_core.Decision.stats eng in
  ( "engine.cache_hit_frac",
    float_of_int (E.Stats.cache_hits st) /. float_of_int (max 1 (E.Stats.decisions st)) )
  :: List.concat_map
       (fun s ->
         let r = get t.runs s in
         [ ("stage." ^ s ^ ".runs", float_of_int r);
           ("stage." ^ s ^ ".decided_frac", float_of_int (get t.decided s) /. float_of_int (max 1 r)) ])
       names
