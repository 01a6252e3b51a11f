(** Severity-graded diagnostics shared by the instance linter and the
    source-rule checker.

    A diagnostic couples a stable code (["LAT001"], ["GRF003"], ...) with a
    severity, a human-readable location ("where in the instance / source
    tree") and a message. Codes are stable across releases so allowlists,
    CI greps and DESIGN.md §7 can refer to them. *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string

val severity_rank : severity -> int
(** [Info] < [Warning] < [Error]. *)

type t = {
  severity : severity;
  code : string;      (** stable machine-readable code, e.g. ["LAT001"] *)
  context : string;   (** where: ["costs[3][7]"], ["graph"], ["lib/cp/search.ml:25"] *)
  message : string;   (** what and why, one line *)
}

val make : severity -> code:string -> context:string -> string -> t

val errors : t list -> t list
val warnings : t list -> t list

val worst : t list -> severity option
(** Highest severity present, [None] on an empty list. *)

val sort : t list -> t list
(** Most severe first; ties by code then context (stable for tests). *)

val to_string : t -> string
(** ["error[LAT001] costs[3][7]: ..."]. *)

val pp : Format.formatter -> t -> unit

val render : Format.formatter -> t list -> unit
(** One diagnostic per line, sorted most severe first. *)

val json : t list -> Obs.Json.t
(** A JSON array of [{"severity","code","context","message"}] objects,
    sorted as {!sort}. *)

val to_json : t list -> string
(** [Obs.Json.to_string (json ds)]. *)

exception Failed of t list
(** Raised by pre-solve gates when diagnostics block a run. The payload
    holds every diagnostic collected, not just the blocking ones. *)

val check : ?strict:bool -> t list -> unit
(** Raise {!Failed} if the list contains an error — or, with
    [~strict:true], a warning. Info never blocks. *)

val failure_message : t list -> string
(** Multi-line rendering used for error output when {!Failed} escapes. *)
