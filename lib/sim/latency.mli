(** The simulator's site model: per-site message-latency distributions.

    Messages between transactions at different sites (lock requests,
    grants, cross-site step notifications) cost a sampled number of
    ticks; same-site messages are free. Latency draws take an explicit
    RNG so callers can keep them off the scheduling-policy stream. *)

type dist =
  | Zero
  | Constant of int  (** every message costs exactly [n] ticks *)
  | Uniform of int * int  (** inclusive range, sampled uniformly *)

type t

val none : t
(** Zero latency everywhere: every step's inputs are ready as soon as
    its predecessors have run. *)

val make : dist -> t
(** [make remote]: cross-site messages cost [remote]. *)

val is_zero : t -> bool

val sample : t -> Random.State.t -> src:int -> dst:int -> int
(** One-way cost of a message from site [src] to site [dst]: [0] without
    an RNG draw when [src = dst]. *)

val of_string : string -> t
(** Parses ["none"], a constant (["3"]), or a uniform range (["1-5"]) as
    the remote distribution. Raises [Invalid_argument] or [Failure] on
    malformed input. *)

val to_string : t -> string

val pp : Format.formatter -> t -> unit
