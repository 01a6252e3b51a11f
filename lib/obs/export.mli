(** Trace exporters: JSONL and Chrome [trace_event], both written
    through {!Json}.

    Both consume the event list returned by {!Sink.drain} plus optional
    {!Counter.snapshot} / {!Gauge.snapshot} / {!Histogram.snapshot}
    aggregates; neither touches global state, so the same drained list
    can be exported in both formats. The text view of a trace is
    {!Trace.report}. *)

val schema_version : int
(** Version of the JSONL record layout; bumped whenever a line type
    changes shape. {!Trace.load} refuses newer schemas, and
    [cloudia obs compare] refuses to compare traces across versions. *)

(** Provenance stamped into the JSONL header so a later [obs compare]
    can refuse to diff traces from mismatched runs. *)
type run = {
  seed : int option;
  argv : string list;
}

val jsonl :
  ?run:run ->
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  ?hists:Histogram.snapshot list ->
  out_channel ->
  Event.t list ->
  unit
(** One JSON object per line. The first line is always a header record
    [{"type":"header","schema":…,"seed":…,"argv":…,…}]; then spans as
    [{"type":"span_begin","name":…,"ts_ns":…,"domain":…}], incumbents
    with a ["cost"] field, gc deltas as ["gc"] records, and one
    ["counter"] / ["gauge"] / ["hist"] line per aggregate. Aggregate
    lines carry the export-time [ts_ns]/[domain] (they are point-in-time
    snapshots, not events). Every line parses independently — the format
    {!Trace.load}, scripts, and the CI trace validation consume. *)

val chrome :
  ?run:run ->
  ?counters:(string * int) list ->
  ?gauges:(string * float) list ->
  ?hists:Histogram.snapshot list ->
  out_channel ->
  Event.t list ->
  unit
(** Chrome [trace_event] JSON ([{"traceEvents":[…]}]), loadable in
    [chrome://tracing] and {{:https://ui.perfetto.dev}Perfetto}. Spans map
    to ["B"]/["E"] events (pid 1, tid = domain id), incumbent updates, gc
    deltas, and final counter/gauge totals to ["C"] counter tracks, marks
    to instants, histograms to end-of-trace instants carrying
    count/p50/p90/p99/max. Timestamps are microseconds relative to the
    first event. [run] is accepted for signature uniformity (the format
    has no header slot). *)
