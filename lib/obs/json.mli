(** Minimal JSON values: the parser behind {!Trace} and the wire format
    of the serve protocol ([lib/serve]), with no external dependency.

    Numbers are kept as raw strings: [ts_ns] values are int64 nanoseconds
    that can exceed the 2^53 float-exact range, so each consumer converts
    with the type it needs ({!int_field}, {!int64_field}, …). The emitter
    writes {!Num} payloads verbatim, so an int64 round-trips losslessly
    through {!to_string} and {!parse}. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** raw numeric literal, unconverted *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string
(** Raised by {!parse} and the [_field] accessors on malformed input. *)

val parse : string -> t
(** Parse one JSON value; raises {!Bad} on syntax errors or trailing
    garbage. Unicode escapes above 0x7f are preserved only approximately
    (the exporters never emit them). *)

val parse_opt : string -> t option
(** [parse] with {!Bad} mapped to [None]. *)

(** {2 Emission}

    [to_string] inverts {!parse}: strings are escaped, numbers emitted
    raw, [Null]/[Bool] as literals. *)

val to_string : t -> string

val of_float : float -> t
(** [%.17g] (lossless for float64); NaN and infinities become [Null] —
    JSON has no literals for them. *)

val of_int : int -> t
val of_int64 : int64 -> t

(** {2 Field accessors}

    All take the value of an [Obj]; lookups on other constructors behave
    as a missing field. *)

val member : string -> t -> t option
val str_field : string -> t -> string
val float_field : ?default:float -> string -> t -> float
val int_field : ?default:int -> string -> t -> int
val int64_field : ?default:int64 -> string -> t -> int64
