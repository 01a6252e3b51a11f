(** The reference decoder of a latency matrix on the wire: rows of
    numbers or [null] (NaN), boxed row by row and copied into a
    {!Lat_matrix.t}. *)

val of_json : Obs.Json.t -> Lat_matrix.t
(** Raises [Serve.Protocol.Protocol_error] with the same messages, in
    the same order, as the daemon's decoder. *)

val to_json : Lat_matrix.t -> Obs.Json.t
(** The encoder: rows of {!Json.of_float} cells, NaN as [null], ±inf as
    [1e999]/[-1e999]. *)
