open Distlock_txn
open Distlock_sched

(** Certificates of unsafety (Theorem 2's constructive proof /
    Corollary 2).

    Given a system closed with respect to a dominator [X], the certificate
    is built exactly as in the paper: topologically sort the closed [T1]
    placing the [Ux] ([x ∈ X]) steps as early as possible, topologically
    sort the closed [T2] placing the [Lx] steps as late as possible
    (breaking ties among them by the first sort), and thread a monotone
    path through the resulting picture that separates the [X]-rectangles
    from the rest. The result is a legal, non-serializable schedule of the
    *original* system.

    The second sort cannot always mirror the first: the closed [T2] may
    order two [Lx] against the order the first sort gave their [Ux], and
    then the picture may have no separating path. The schedule is then
    read straight off the closed orders, as a topological order of both
    transactions plus each common entity's two lock sections in the
    dominator's orientation. *)

type t = {
  ext1 : int array;  (** Linear extension of (the closed, hence original) [T1]. *)
  ext2 : int array;
  schedule : Schedule.t;
  below : Database.entity list;
      (** Entities whose section [T1] finishes before [T2] starts. *)
  above : Database.entity list;
}

val construct :
  original:System.t ->
  closed:System.t ->
  dominator:Database.entity list ->
  (t, string) result
(** Fails (with a diagnostic) only if the inputs do not actually satisfy
    the closure conditions. On success the certificate is already
    verified. *)

val verify : System.t -> t -> bool
(** Re-checks, against the given system, that the schedule is a legal
    complete schedule and is not conflict-serializable. *)

val pp : System.t -> Format.formatter -> t -> unit
