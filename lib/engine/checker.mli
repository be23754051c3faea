(** First-class decision procedures ("checkers").

    Each of the paper's deciders becomes a value of type [('sys, 'ev) t]:
    a named stage with a provenance tag, an applicability predicate, and
    a budgeted [run] function returning a structured
    {!stage_result} instead of free-form strings or silently-swallowed
    exceptions. The {!Engine} runs a list of checkers as a staged
    pipeline, cheapest and strongest first.

    The types are polymorphic in the subject ['sys] and the unsafety
    evidence ['ev] so this library stays independent of the transaction
    model; the concrete checker table for the paper's procedures lives in
    [Distlock_core.Checkers]. *)

(** Which result of the paper a verdict rests on. *)
type procedure =
  | Trivial  (** Degenerate instances (e.g. fewer than two common entities). *)
  | Theorem_1  (** Strong connectivity of [D(T1,T2)] — sufficient, any sites. *)
  | Theorem_2  (** The exact two-site decision with closure certificates. *)
  | Proposition_1  (** The geometric separation test on total orders. *)
  | Corollary_2  (** The dominator-closure sweep, any number of sites. *)
  | Lemma_1  (** Exhaustive check of all extension pairs. *)
  | State_graph
      (** Memoized reachability over bitset-packed execution states — an
          exact oracle exponentially cheaper than schedule enumeration. *)
  | Proposition_2  (** The many-transaction criterion ([G], [B_c] cycles). *)

val procedure_label : procedure -> string
(** Short paper-style label: ["Thm 1"], ["Prop 1"], ["Cor 2"], … *)

val cost_label : procedure -> string
(** The procedure's asymptotic cost class, carried into spans and
    explain records: ["poly"] for the trivial test, Theorems 1 and 2
    and Proposition 1; ["exp"] for Corollary 2, Lemma 1, the state graph
    and Proposition 2. The engine runs stages in list order whatever
    their cost. *)

(** What one stage concluded about one subject. *)
type 'ev stage_result =
  | Safe of string  (** Decided safe; the string says why. *)
  | Unsafe of string * 'ev  (** Decided unsafe, with evidence. *)
  | Pass of string  (** Inconclusive here; try the next stage. *)
  | Error of string
      (** The stage itself failed (budget exceeded, construction error).
          Recorded in the trace and surfaced in an [Unknown] verdict if no
          later stage decides — never silently masked. *)
  | Annotated of Distlock_obs.Attr.t * 'ev stage_result
      (** A result wrapped with measured attributes (states visited,
          pair-cache traffic, …). The engine strips the wrapper and
          attaches the attributes to the stage's trace entry and span,
          where [check --explain] and the trace exporters surface them. *)

type ('sys, 'ev) t = {
  name : string;
  procedure : procedure;
  applicable : 'sys -> bool;
  run : Budget.t -> 'sys -> 'ev stage_result;
}

val make :
  name:string ->
  procedure:procedure ->
  applicable:('sys -> bool) ->
  run:(Budget.t -> 'sys -> 'ev stage_result) ->
  ('sys, 'ev) t

val map_evidence : ('a -> 'b) -> ('sys, 'a) t -> ('sys, 'b) t
(** Lift a checker into a wider evidence type (used to combine the
    two-transaction table with the many-transaction checker). *)

val strip : 'ev stage_result -> Distlock_obs.Attr.t * 'ev stage_result
(** Unwrap nested {!Annotated} layers: the collected attributes
    (outermost first) and the underlying plain result. *)
