(** The simulator's clock/event-queue layer.

    A priority queue of timestamped events in place of a lockstep tick:
    time advances by popping the earliest pending event, so idle
    stretches cost nothing. Events at equal times pop in the order they
    were scheduled (an internal sequence stamp breaks ties), which makes
    every simulation built on this layer deterministic given its seed —
    no iteration-order or wall-clock dependence. *)

type 'a t

val create : unit -> 'a t
(** An empty queue at time [0]. *)

val now : 'a t -> int
(** The time of the most recently popped event ([0] initially). *)

val at : 'a t -> time:int -> 'a -> unit
(** Schedule an event at an absolute time (clamped to [now]: the past is
    not addressable). *)

val after : 'a t -> delay:int -> 'a -> unit
(** Schedule an event [delay] ticks from [now] (negative clamps to 0). *)

val pop : 'a t -> (int * 'a) option
(** Remove and return the earliest event, advancing {!now} to its time;
    [None] when the queue is empty. *)

val length : 'a t -> int
