(* Per-site message-latency distributions. A sample is the one-way cost
   of a message between two sites; same-site traffic is free. Draws come
   from a caller-supplied RNG so the simulator can keep latency noise on
   its own stream, independent of scheduling-policy randomness. *)

type dist = Zero | Constant of int | Uniform of int * int

(* The cross-site distribution. *)
type t = dist

let none = Zero

let make remote = remote

let is_zero = function
  | Zero -> true
  | Constant n -> n <= 0
  | Uniform (lo, hi) -> hi <= 0 && lo <= 0

let sample t rng ~src ~dst =
  if src = dst then 0
  else
    match t with
    | Zero -> 0
    | Constant n -> max 0 n
    | Uniform (lo, hi) ->
        let lo = max 0 lo in
        let hi = max lo hi in
        lo + Random.State.int rng (hi - lo + 1)

let dist_of_string s =
  match String.index_opt s '-' with
  | Some i ->
      let lo = int_of_string (String.sub s 0 i) in
      let hi = int_of_string (String.sub s (i + 1) (String.length s - i - 1)) in
      if lo < 0 || hi < lo then invalid_arg "Latency.of_string";
      Uniform (lo, hi)
  | None -> (
      match int_of_string s with
      | 0 -> Zero
      | n when n > 0 -> Constant n
      | _ -> invalid_arg "Latency.of_string")

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "none" | "zero" | "0" -> none
  | s -> dist_of_string s

let dist_to_string = function
  | Zero -> "0"
  | Constant n -> string_of_int n
  | Uniform (lo, hi) -> Printf.sprintf "%d-%d" lo hi

let to_string t = if is_zero t then "none" else dist_to_string t

let pp ppf t = Format.pp_print_string ppf (to_string t)
