open Distlock_txn
open Distlock_sched

(** The paper's decision procedures as first-class engine checkers.

    Each stage follows the common [Distlock_engine.Checker] signature:
    an applicability predicate and a budgeted run function returning a
    structured result with provenance; the cost class follows from the
    procedure.

    Stage order in {!pair_checkers} (cheapest and strongest first):

    + {!trivial} — fewer than two commonly locked entities (always safe);
    + {!theorem1} — strong connectivity of [D(T1,T2)] (sufficient, any
      number of sites);
    + {!twosite} — Theorem 2, exact on at most two sites, certificates
      of unsafety via the dominator closure;
    + {!proposition1} — exact for totally ordered pairs on any number of
      sites: the single picture either separates or it does not;
    + {!corollary2} — the dominator-closure sweep; a closing dominator
      certifies unsafety. Sweep failures (too many dominators,
      certificate construction errors) surface as stage errors instead
      of being silently treated as "no dominator";
    + {!lemma1} — the exhaustive extension-pair oracle, capped by the
      budget's step allowance (default 2,000,000 pictures). *)

type evidence =
  | Certificate of Certificate.t
      (** Dominator-closure construction (Theorem 2 / Corollary 2). *)
  | Counterexample of Schedule.t
      (** A legal non-serializable schedule found geometrically. *)

val schedule_of_evidence : evidence -> Schedule.t

(** What every stage reads: the system, and its [D(T1,T2)], built at
    most once per decision by the first of the trivial, Theorem 1,
    two-site and closure stages to run; no other stage forces it. *)
type subject = private { system : System.t; dgraph : Dgraph.t Lazy.t }

val subject : System.t -> subject

type t = (subject, evidence) Distlock_engine.Checker.t

val trivial : t

val theorem1 : t

val twosite : t

val proposition1 : t

val corollary2 : t

val lemma1 : t

val pair_checkers : t list
(** The staged pipeline for two-transaction systems, in the order
    above. *)

val decide :
  ?stats:Distlock_engine.Stats.t ->
  ?budget:Distlock_engine.Budget.t ->
  System.t ->
  evidence Distlock_engine.Outcome.t
(** The stateless pair decision: one run of {!pair_checkers} under
    [budget] (default unlimited), stage counters into [stats]. Raises
    [Invalid_argument] unless the system has exactly two transactions;
    {!Decision} is the cached service. *)

val state_graph_result :
  counterexample:(Schedule.t -> 'ev) ->
  Distlock_engine.Budget.t ->
  subject ->
  'ev Distlock_engine.Checker.stage_result
(** Shared run function of the state-graph oracle stages (the pair stage
    here and the multi-transaction fallback in [Decision]): runs
    {!Distlock_sched.Stategraph.decide} under the budget's step allowance
    and wraps the verdict in an [Annotated] carrying the collapse
    statistics ([states], [dup_hits], [exhausted]). *)
