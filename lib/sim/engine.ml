(** How the simulator ({!Esim.run}) picks among enabled steps. *)
type policy =
  | Round_robin  (** Cycle over instances, running each enabled step. *)
  | Random of int  (** Uniform choice among enabled steps, seeded. *)
