(** Typed key/value attributes carried by spans and events. *)

type value = Str of string | Int of int | Float of float | Bool of bool

type t = (string * value) list

val str : string -> string -> string * value

val int : string -> int -> string * value

val float : string -> float -> string * value

val bool : string -> bool -> string * value

val json_of_value : value -> Json.t

val to_json : t -> Json.t

val value_to_string : value -> string

val pp : Format.formatter -> t -> unit
(** Space-separated [k=v] pairs, as [--explain] prints stage metrics. *)
