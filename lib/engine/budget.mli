(** Explicit resource budgets for staged decision pipelines.

    A budget bounds how much work a pipeline may spend on one decision:
    an optional cap on enumeration steps (schedules, pictures, extension
    pairs — whatever the exponential stages count) and an optional
    deadline in seconds. This replaces ad-hoc threading of integer
    [exhaustive_budget] arguments through every layer.

    A {!meter} is a started budget: it carries the start time so stages
    and the pipeline driver can ask whether the deadline has passed and
    how many enumeration steps the remaining stages may still spend. *)

type t = {
  max_steps : int option;
      (** Cap on enumeration steps for exhaustive stages; [None] means
          the stage's own documented default applies. *)
  max_seconds : float option;
      (** Relative wall-clock deadline (seconds from {!start});
          [None] means no deadline. *)
}

val unlimited : t
(** No step cap, no deadline. *)

val make : ?max_steps:int -> ?max_seconds:float -> unit -> t
(** Raises [Invalid_argument] on a negative cap or deadline. *)

val of_steps : int -> t
(** [of_steps n] = [make ~max_steps:n ()]. *)

(** {1 Started budgets} *)

type meter

val start : t -> meter
(** Stamp the current time; the deadline (if any) counts from here. *)

val budget : meter -> t

val elapsed : meter -> float
(** Wall-clock seconds since {!start} ({!Distlock_obs.Obs.now_s}) —
    not CPU time, which diverges under multiple domains. *)

val expired : meter -> bool
(** Has the deadline passed? (Always [false] without one.) *)

val remaining_seconds : meter -> float option
(** Deadline seconds still available, clamped at [0.]; [None] without a
    deadline. *)

val step_allowance : meter -> default:int -> int
(** The step cap for an exhaustive stage: the budget's [max_steps] if
    set, the stage's [default] otherwise. *)
