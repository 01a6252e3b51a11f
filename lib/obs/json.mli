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

val parse : ?len:int -> string -> t
(** Parse one JSON value from the first [len] bytes of the string
    (default: all of it); raises {!Bad} on syntax errors or trailing
    garbage, with the byte offset in the message, and
    [Invalid_argument] if [len] is outside the string. Unicode escapes
    above 0x7f are preserved only approximately (the exporters never
    emit them).

    The scan allocates nothing per byte, only the values it returns.
    A number is a maximal run of [0-9+-.eE] that must be, as a whole, a
    literal [float_of_string_opt] accepts —
    [[+-]? (D+ ('.' D* )? | '.' D+) ([eE] [+-]? D+)?] — which is checked
    lexically, so the string is converted once, by whichever accessor
    reads it. Overflowing literals such as [1e999] are accepted (they
    read back as infinities). *)

(** {2 Emission}

    [to_string] inverts {!parse}: strings are escaped, numbers emitted
    raw, [Null]/[Bool] as literals, with no whitespace. The document is
    measured first and written into one buffer of exactly its size. *)

val to_string : t -> string

val length : t -> int
(** The length of [to_string v], counted without writing it. *)

val write : bytes -> int -> t -> int
(** [write b off v] writes the text of [to_string v] into [b] from
    offset [off] and returns the offset just past it. Raises
    [Invalid_argument] if [b] is too short: check {!length} first. *)

val of_float : float -> t
(** The text of [Printf.sprintf "%.17g"] (lossless for float64); NaN and
    infinities become [Null] — JSON has no literals for them.

    For 1e-6 <= |x| < 1e16, the range of latencies and budgets, the
    digits come from an exact fast path that allocates only the result
    string: x·10^k (k <= 22, so 10^k is an exact double) is split exactly
    into [hi + lo] with one [Float.fma], [hi] >= 2^53 is an integer, and
    17-digit round-half-even of [hi + lo] needs no bignum. Other values
    go through [sprintf]. The output is the same bytes either way. *)

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
