(** Minimal JSON values: the parser behind {!Trace} and the wire format
    of the serve protocol ([lib/serve]), with no external dependency.

    Numbers are kept as raw strings: [ts_ns] values are int64 nanoseconds
    that can exceed the 2^53 float-exact range, so each consumer converts
    with the type it needs ({!int_field}, {!int64_field}, …). The emitter
    writes {!Num} payloads verbatim, so an int64 round-trips losslessly
    through {!to_string} and {!parse}.

    The exception is a row of doubles, such as a latency-matrix row:
    {!parse} reads it into {!Floats}, converting each number where it
    lies in the input, and {!write} prints it back straight into the
    output buffer. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** raw numeric literal, unconverted *)
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Floats of float array
      (** A row of doubles, written as an array of [%.17g] numbers with
          NaN as [null] and ±infinity as the overflowing literals
          [1e999] and [-1e999], which read back as ±infinity.
          {!parse} returns it for an array of three or more numbers and
          [null]s of which at least one is a [null] or a literal with a
          fraction or an exponent. An array of integer literals, and any
          shorter array, such as a [src, dst] pair, stays an [Arr] of
          {!Num}, so those literals keep their exact spelling. *)

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
    lexically. Outside a {!Floats} row the literal is kept as a {!Num},
    to be converted once, by whichever accessor reads it. Overflowing
    literals such as [1e999] are accepted (they read back as
    infinities).

    Errors do not depend on the row reader: an array it cannot read
    whole is parsed again by the generic path, which raises the same
    message at the same byte offset. *)

(** {2 Emission}

    [to_string] inverts {!parse}: strings are escaped, numbers emitted
    raw, [Null]/[Bool] as literals, with no whitespace. *)

val to_string : t -> string
(** Written into {!to_string}'s spare and copied out, so a warm call
    allocates about the string it returns. *)

val write : bytes -> int -> t -> bytes * int
(** [write b off v] writes the text of [to_string v] from offset [off]
    and returns the buffer it used and the offset just past the text.
    That buffer is [b] while [b] has room, and otherwise a larger copy
    of it (at least twice the size), so bytes before [off] are kept.
    The writer owns every byte from [off] on: those past the returned
    offset are unspecified. Raises [Invalid_argument] if [off] is
    outside [b]. *)

val of_float : float -> t
(** The text of [Printf.sprintf "%.17g"] (lossless for float64); NaN and
    infinities become [Null] — JSON has no literals for them.

    For 1e-6 <= |x| < 1e16, the range of latencies and budgets, and for
    ±0, the digits come from an exact fast path: x·10^k (k <= 22, so
    10^k is an exact double) is split exactly into [hi + lo] with one
    [Float.fma], [hi] >= 2^53 is an integer, and 17-digit
    round-half-even of [hi + lo] needs no bignum. The 17 digits are
    written as one leading digit and two 8-digit blocks, each block
    turned into ASCII by multiply-shift steps, and the layout then
    drops trailing zeros and places the point. {!Floats} cells are
    printed by the same code straight into the output buffer, with no
    string per cell. Other values go through [sprintf]. The output is
    the same bytes either way. *)

val of_int : int -> t
val of_int64 : int64 -> t

(** {2 Spare buffers}

    A document is written into a buffer that doubles as it fills, so a
    fresh buffer per document is all of its intermediate sizes in
    garbage. Instead each use keeps one spare: {!to_string} has its own,
    and [Serve.Protocol] keeps one for sending and one for receiving. *)

type spare
(** A slot holding at most one buffer. Safe to share between domains:
    a buffer is only ever held by the slot or by one taker. *)

val spare : unit -> spare
(** An empty slot. *)

val take : spare -> int -> bytes
(** [take s size] empties [s] and returns the buffer it held, or a
    fresh buffer of [size] bytes when it held none. The caller owns the
    buffer until it gives it back. *)

val give_back : spare -> bytes -> unit
(** [give_back s b] puts [b] in [s] if [b] is longer than the buffer
    [s] holds and at most 1 MiB long; otherwise [b] is dropped. The
    caller must not touch [b] afterwards. *)

(** {2 Numbers} *)

val number : string -> float
(** [float_of_string], bit for bit, raising [Failure] where it does.
    A literal in the grammar {!parse} accepts goes through an exact
    decimal reader instead of [strtod]:
    - its first 18 significant digits form an integer [man], and the
      value is man·10^q;
    - if man < 2^53 and |q| <= 22, one correctly rounded multiply or
      divide by the exact 10^|q| gives the result (Clinger's fast path);
    - otherwise Eisel–Lemire: the top bits of [man] times a 128-bit
      truncation of 10^q, for -342 <= q <= 308, decide the rounding
      unless the truncation error could move it. When digits were cut,
      [man] and [man + 1] must round alike;
    - q > 308 is infinite and q < -342 is zero, whatever [man];
    - anything else — an undecided product, a subnormal or overflowing
      result, text outside the grammar — goes to [float_of_string].
    {!float_field} and the {!Floats} row reader use it. *)

val read_exact : string -> float option
(** The reader's exact paths alone, for tests: [Some v] when [v] was
    decided without [float_of_string] (and then equals it), [None] when
    {!number} would fall back. *)

(** {2 Field accessors}

    All take the value of an [Obj]; lookups on other constructors behave
    as a missing field. *)

val member : string -> t -> t option
val str_field : string -> t -> string
val float_field : ?default:float -> string -> t -> float
val int_field : ?default:int -> string -> t -> int
val int64_field : ?default:int64 -> string -> t -> int64
