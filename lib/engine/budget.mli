(** Explicit step budgets for staged decision pipelines.

    A budget bounds how much work a pipeline may spend on one decision:
    an optional cap on enumeration steps (schedules, pictures, extension
    pairs, states, cycles — whatever the exhaustive stages count). This
    replaces ad-hoc threading of integer [exhaustive_budget] arguments
    through every layer.

    A {!meter} is a started budget: it carries the start time, so the
    engine can report the decision's duration, and tells each exhaustive
    stage how many enumeration steps it may spend. *)

type t

val unlimited : t
(** No step cap: every stage uses its own documented default. *)

val of_steps : int -> t
(** A cap of [n] enumeration steps for each exhaustive stage. Raises
    [Invalid_argument] on a negative [n]. *)

(** {1 Started budgets} *)

type meter

val start : t -> meter
(** Stamp the current time. *)

val budget : meter -> t

val elapsed : meter -> float
(** Wall-clock seconds since {!start} ({!Distlock_obs.Obs.mono_s}) —
    not CPU time, which diverges under multiple domains. *)

val step_allowance : meter -> default:int -> int
(** The step cap for an exhaustive stage: the budget's cap if set, the
    stage's [default] otherwise. *)
