(** Spans that also sample resource usage.

    [with_ name f] is {!Span.with_} plus a per-span GC delta: just
    before the span closes it emits an {!Event.Gc_delta} carrying the
    minor/major/promoted words allocated, heap growth, and compactions
    that happened inside the span (on this domain). Minor words come
    from [Gc.minor_words], which counts every word; major and promoted
    words from [Gc.counters], which counts a block allocated straight
    into the major heap (any array over 256 words) when it is
    allocated; heap growth and compactions from [Gc.quick_stat]. Use it
    for solver phases where the allocation footprint matters; keep plain
    {!Span.with_} for fine-grained regions, where two extra
    [Gc.quick_stat] calls per iteration would distort the measurement.

    When the sink is disabled this is just [f ()]. *)

val with_ : string -> (unit -> 'a) -> 'a
