(* The step cap; [None] leaves each stage its own default. *)
type t = int option

let unlimited = None

let of_steps n =
  if n < 0 then invalid_arg "Budget.of_steps: negative step cap";
  Some n

let step_allowance t ~default = Option.value t ~default
