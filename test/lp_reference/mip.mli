(** {!Lp.Mip}'s branch and bound with every relaxation on the dense
    reference kernel ({!Dense}), each node solved cold. *)

include module type of Lp.Mip.Make (Dense)
