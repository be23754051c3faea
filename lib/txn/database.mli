(** A distributed database in the paper's sense (Section 2):
    [D = (E, m, σ)] — a set of entities, a number of sites, and a
    *stored-at* function assigning a site to each entity.

    Entities are interned: user code names them by string, the library works
    with dense integer ids. Sites are numbered from [1] as in the paper. *)

type t

type entity = int
(** Dense entity id, [0 .. num_entities - 1]. *)

val create : unit -> t

val add : t -> name:string -> site:int -> entity
(** Registers an entity. Re-adding the same name at the same site returns
    the existing id; re-adding at a *different* site raises
    [Invalid_argument] (the stored-at function is a function). Sites must
    be [>= 1]. *)

val add_all : t -> (string * int) list -> unit

val find : t -> string -> entity option

val id_exn : t -> string -> entity
(** Raises [Not_found] for unknown names. *)

val name : t -> entity -> string

val site : t -> entity -> int
(** The stored-at function [σ]. *)

val num_entities : t -> int

val num_sites : t -> int
(** Highest site number in use ([m]); [0] for an empty database. *)

val entities : t -> entity list

val entities_at : t -> int -> entity list
(** All entities stored at one site. *)
