type procedure =
  | Trivial
  | Theorem_1
  | Theorem_2
  | Proposition_1
  | Corollary_2
  | Lemma_1
  | State_graph
  | Proposition_2

let procedure_label = function
  | Trivial -> "trivial"
  | Theorem_1 -> "Thm 1"
  | Theorem_2 -> "Thm 2"
  | Proposition_1 -> "Prop 1"
  | Corollary_2 -> "Cor 2"
  | Lemma_1 -> "Lemma 1"
  | State_graph -> "States"
  | Proposition_2 -> "Prop 2"

let cost_label = function
  | Trivial | Theorem_1 | Theorem_2 | Proposition_1 -> "poly"
  | Corollary_2 | Lemma_1 | State_graph | Proposition_2 -> "exp"

type 'ev stage_result =
  | Safe of string
  | Unsafe of string * 'ev
  | Pass of string
  | Error of string
  | Annotated of Distlock_obs.Attr.t * 'ev stage_result

type ('sys, 'ev) t = {
  name : string;
  procedure : procedure;
  applicable : 'sys -> bool;
  run : Budget.t -> 'sys -> 'ev stage_result;
}

let make ~name ~procedure ~applicable ~run = { name; procedure; applicable; run }

let rec map_result f = function
  | Safe d -> Safe d
  | Unsafe (d, ev) -> Unsafe (d, f ev)
  | Pass d -> Pass d
  | Error d -> Error d
  | Annotated (a, r) -> Annotated (a, map_result f r)

let map_evidence f c =
  { c with run = (fun budget sys -> map_result f (c.run budget sys)) }

let rec strip = function
  | Annotated (attrs, r) ->
      let attrs', r' = strip r in
      (attrs @ attrs', r')
  | r -> ([], r)
