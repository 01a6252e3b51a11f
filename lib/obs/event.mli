(** Telemetry events as they sit in the sink's ring buffers.

    Events are deliberately flat: a timestamp, the emitting domain, and a
    small payload. Hierarchy (span nesting) is reconstructed by exporters
    from begin/end ordering within a domain, exactly as Chrome's
    [trace_event] format does. *)

type payload =
  | Span_begin of string  (** a timed region opens in this domain *)
  | Span_end of string    (** the matching region closes *)
  | Incumbent of { stream : string; cost : float }
      (** a best-cost-so-far stream improved to [cost] *)
  | Mark of string        (** instantaneous annotation *)
  | Gc_delta of {
      span : string;
      minor_words : float;
      major_words : float;
      promoted_words : float;
      heap_words : int;    (** heap growth over the span, in words *)
      compactions : int;
    }
      (** GC delta over the enclosing span of the same name ([minor_words]
          from [Gc.minor_words], the rest from [Gc.quick_stat]), emitted
          by {!Resource.with_} just before its [Span_end]. *)

type t = {
  t_ns : int64;   (** {!Clock.now_ns} at emission *)
  domain : int;   (** numeric id of the emitting OCaml domain *)
  payload : payload;
}

val name : t -> string
(** The span/mark name, incumbent stream name, or gc-delta span name. *)
