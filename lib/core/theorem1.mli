open Distlock_txn

(** Theorem 1: if [D(T1,T2)] is strongly connected then [{T1,T2}] is safe
    — for any number of sites. The condition is *sufficient only*: Fig 5
    exhibits a safe four-site system whose [D] is not strongly connected
    (see {!Examples.fig5} and experiment E5). *)

val guarantees_safe : System.t -> bool
(** For a two-transaction system: [D(T1,T2)] is strongly connected.
    Fewer than two commonly locked entities also counts: with at most
    one conflicting entity no schedule can separate two rectangles. *)
