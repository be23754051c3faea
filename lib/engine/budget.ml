type t = { max_steps : int option; max_seconds : float option }

let unlimited = { max_steps = None; max_seconds = None }

let make ?max_steps ?max_seconds () =
  (match max_steps with
  | Some n when n < 0 -> invalid_arg "Budget.make: negative max_steps"
  | _ -> ());
  (match max_seconds with
  | Some s when s < 0. -> invalid_arg "Budget.make: negative max_seconds"
  | _ -> ());
  { max_steps; max_seconds }

let of_steps n = make ~max_steps:n ()

(* Deadlines are monotonic wall time ([Obs.mono_s]), not process CPU
   time: with several domains running, CPU time advances domain-count
   times faster than the clock on the wall, which would expire
   deadlines early — and a meter that outlives its stage must measure
   the wait, not the burn. Monotonic rather than [gettimeofday],
   because an NTP step must not expire (or un-expire) a deadline. *)
type meter = { spec : t; started : float }

let start spec = { spec; started = Distlock_obs.Obs.mono_s () }

let budget m = m.spec

let elapsed m = Distlock_obs.Obs.mono_s () -. m.started

(* [>=] so that [max_seconds = 0.] deterministically means "no time at
   all" regardless of clock granularity. *)
let expired m =
  match m.spec.max_seconds with None -> false | Some s -> elapsed m >= s

let remaining_seconds m =
  match m.spec.max_seconds with
  | None -> None
  | Some s -> Some (Float.max 0. (s -. elapsed m))

let step_allowance m ~default =
  match m.spec.max_steps with None -> default | Some n -> n
