open Distlock_order

(** Locked transactions: a partial order of steps (Section 2).

    A transaction is [T = (S, A, e)] — steps, a partial order, a
    modifies-function — here represented as an array of {!Step.t} plus a
    {!Poset.t} over step indices. Step labels are kept for printing and for
    the builder's by-label arc syntax. *)

type t

val make :
  name:string -> ?labels:string array -> steps:Step.t array -> Poset.t -> t
(** Raises [Invalid_argument] if the poset size differs from the step
    count. Does *not* validate the paper's locking discipline — see
    {!Validate}. *)

val name : t -> string

val num_steps : t -> int

val step : t -> int -> Step.t

val steps : t -> Step.t array
(** A copy. *)

val label : t -> int -> string

val order : t -> Poset.t

val precedes : t -> int -> int -> bool
(** Strict precedence between step indices, the paper's [>_T]. *)

val concurrent : t -> int -> int -> bool

val lock_of : t -> Database.entity -> int option
(** Index of the [lock x] step, if the transaction locks [x]. Assumes the
    at-most-one-pair discipline; with duplicates, the first by index wins. *)

val unlock_of : t -> Database.entity -> int option

val updates_of : t -> Database.entity -> int list

val locked_entities : t -> Database.entity list
(** Entities with both a lock and an unlock step, ascending ids. *)

val touched_entities : t -> Database.entity list
(** Every entity appearing in any step. *)

val steps_at_site : t -> Database.t -> int -> int list
(** Indices of steps whose entity is stored at the given site. *)

val add_precedences : t -> (int * int) list -> t option
(** Theorem 2's closure operation: same steps, extra precedences; [None]
    if the extended relation is cyclic. *)

val along : t -> int array -> t
(** [along t ext] is the totally ordered transaction obtained by replacing
    the partial order with the linear extension [ext] (a permutation of
    step indices). Step indices are preserved, only the order changes.
    Raises [Invalid_argument] if [ext] is not a linear extension of [t]. *)

val is_total : t -> bool

val fingerprint : t -> string
(** Order-canonical fingerprint (32-char hex digest) of this one
    transaction: its name (length-prefixed), step list, and full step
    partial order (its pairs in lexicographic order, read off the
    closure rows, so the digest is independent of how the relation was
    built). Depends on nothing outside the
    transaction, so it is stable under any change to other transactions
    or to entities the transaction does not mention —
    {!System.fingerprint} and {!System.pair_fingerprint} are derived
    from these digests. *)
