(** How the simulator ({!Esim.run}) picks among enabled steps. *)
type policy = Random of int  (** Uniform choice among enabled steps, seeded. *)
