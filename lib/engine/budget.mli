(** Explicit step budgets for staged decision pipelines.

    A budget bounds how much work a pipeline may spend on one decision:
    an optional cap on enumeration steps (schedules, pictures, extension
    pairs, states, cycles — whatever the exhaustive stages count). A
    caller passes it with each decision, and each exhaustive stage reads
    its allowance from it. This replaces ad-hoc threading of integer
    [exhaustive_budget] arguments through every layer. *)

type t

val unlimited : t
(** No step cap: every stage uses its own documented default. *)

val of_steps : int -> t
(** A cap of [n] enumeration steps for each exhaustive stage. Raises
    [Invalid_argument] on a negative [n]. *)

val step_allowance : t -> default:int -> int
(** The step cap for an exhaustive stage: the budget's cap if set, the
    stage's [default] otherwise. *)
