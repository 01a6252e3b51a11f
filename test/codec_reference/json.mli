(** The reference JSON reader and float printer. Same values, same
    errors (message and byte offset) as {!Obs.Json}, written the plain
    way: a [peek] that boxes every byte it looks at, [float_of_string_opt]
    to check each number, [Printf.sprintf "%.17g"] per float. *)

val parse : string -> Obs.Json.t
(** Raises [Obs.Json.Bad] on malformed input. *)

val of_float : float -> Obs.Json.t
(** [%.17g] for finite values, [Null] otherwise. *)

val to_string : Obs.Json.t -> string
(** The [Buffer]-based writer. *)
