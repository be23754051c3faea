(* Shared helpers for the test suites. *)

let rng () = Random.State.make [| 0xd15710c6 |]

let check = Alcotest.(check bool)

let check_int = Alcotest.(check int)

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name gen prop)

(* Fold a brute-force verdict to a boolean with an explicit match.
   Exhaustion fails the test loudly instead of masquerading as UNSAFE,
   which is what a polymorphic [= Brute.Safe] comparison would do. *)
let brute_safe = function
  | Distlock_core.Brute.Safe -> true
  | Distlock_core.Brute.Unsafe _ -> false
  | Distlock_core.Brute.Exhausted { examined; limit } ->
      Alcotest.failf "brute-force oracle exhausted (%d of %d steps)" examined
        limit

(* The pair pipeline's verdict as a boolean; [Unknown] fails the test. *)
let pair_safe sys =
  let module O = Distlock_engine.Outcome in
  match (Distlock_core.Checkers.decide sys).O.verdict with
  | O.Safe -> true
  | O.Unsafe _ -> false
  | O.Unknown m -> Alcotest.fail m

(* Proposition 2 from scratch, each conflicting pair decided by
   [pair_decider] (default {!pair_safe}). *)
let prop2 ?(pair_decider = pair_safe) ?cycle_limit sys =
  let module M = Distlock_core.Multisite in
  M.decide_with
    ~pair_safe:(fun i j -> pair_decider (M.pair_system sys i j))
    ?cycle_limit (M.tally ()) (lazy sys) (M.conflict_graph sys)

(* A random DAG on [n] vertices as an arc list (arcs only go forward in a
   random permutation, so acyclicity is guaranteed). *)
let random_dag_arcs st n density =
  let perm = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = perm.(i) in
    perm.(i) <- perm.(j);
    perm.(j) <- t
  done;
  let arcs = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float st 1.0 < density then
        arcs := (perm.(i), perm.(j)) :: !arcs
    done
  done;
  !arcs

(* A random digraph (possibly cyclic). *)
let random_digraph_arcs st n density =
  let arcs = ref [] in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Random.State.float st 1.0 < density then arcs := (i, j) :: !arcs
    done
  done;
  !arcs

(* QCheck2 generator wrapping a stateful builder. *)
let gen_with_state f =
  QCheck2.Gen.map
    (fun seed ->
      let st = Random.State.make [| seed |] in
      f st)
    QCheck2.Gen.(int_range 0 1_000_000)
