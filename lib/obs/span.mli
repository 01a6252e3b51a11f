(** Hierarchical timed regions.

    Nesting is implicit: spans opened while another span of the same
    domain is still open become its children, which is how
    {!Trace.span_tree} and the Chrome trace viewer reconstruct the
    hierarchy. *)

val with_ : string -> (unit -> 'a) -> 'a
(** [with_ name f] brackets [f ()] in begin/end events; exception-safe
    (the end event is emitted even when [f] raises). When the sink is
    disabled this is just [f ()] — no event, no allocation. *)

val begin_ : string -> unit
(** Manual open, for regions that do not fit a lexical scope. Every
    [begin_] needs a matching {!end_} in the same domain. *)

val end_ : string -> unit

val mark : string -> unit
(** Instantaneous annotation (no duration). *)
