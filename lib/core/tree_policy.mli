open Distlock_txn

(** The tree (hierarchical) locking protocol of Silberschatz and Kedem
    [12], the paper's canonical example of a safe non-two-phase policy
    ("more relaxed methods are known to work on specially structured
    databases"), lifted to distributed transactions in the spirit of
    Section 6: "previous step" becomes "preceding step in the partial
    order".

    Fix a forest over the entities. A transaction follows the (strong,
    all-extensions) protocol when there is a distinguished first entity
    [x0] such that:

    - [Lx0] precedes every other lock step in the partial order, and
    - every other locked entity [x] has its forest parent [p] locked by
      the transaction, with [Lp < Lx < Up] in the partial order — so in
      every linear extension the parent is held when [x] is locked.

    Systems of such transactions over a common forest are safe even
    though they are not two-phase; the test suite validates this against
    the exhaustive oracle. *)

type forest

val forest : Database.t -> (string * string) list -> (forest, string) result
(** [forest db parent_pairs] builds a forest from [(child, parent)] name
    pairs; entities not mentioned are roots. Errors on unknown entities,
    duplicate children, or cycles. *)

val forest_exn : Database.t -> (string * string) list -> forest

val parent : forest -> Database.entity -> Database.entity option

val follows : forest -> Txn.t -> bool
(** Does the transaction follow the strong tree protocol? *)

val first_entity : forest -> Txn.t -> Database.entity option
(** The distinguished [x0], when the transaction follows the protocol and
    locks at least one entity. *)

val violations : forest -> Txn.t -> string list
(** Human-readable reasons the transaction breaks the protocol (empty iff
    {!follows}). *)

val random_protocol_txn :
  Random.State.t ->
  Database.t ->
  forest ->
  name:string ->
  ?cross_prob:float ->
  unit ->
  Txn.t
(** A random well-formed transaction following the protocol: picks a
    random start entity, grows a random connected subtree of at most
    4 entities below it, locks parents before
    children (each child under its parent's section), and — like
    {!Txn_gen} — keeps per-site chains plus a [cross_prob] fraction of
    other cross-site precedences from a base linear order, never dropping
    the protocol's own arcs. *)
