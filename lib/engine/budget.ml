(* The step cap; [None] leaves each stage its own default. *)
type t = int option

let unlimited = None

let of_steps n =
  if n < 0 then invalid_arg "Budget.of_steps: negative step cap";
  Some n

(* Elapsed time is monotonic wall time ([Obs.mono_s]), not process CPU
   time: with several domains running, CPU time advances domain-count
   times faster than the clock on the wall. Monotonic rather than
   [gettimeofday], because an NTP step must not move a decision's
   recorded duration. *)
type meter = { spec : t; started : float }

let start spec = { spec; started = Distlock_obs.Obs.mono_s () }

let budget m = m.spec

let elapsed m = Distlock_obs.Obs.mono_s () -. m.started

let step_allowance m ~default = Option.value m.spec ~default
