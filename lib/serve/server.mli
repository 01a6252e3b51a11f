(** The advising daemon: advise jobs over a Unix-domain socket, sharded
    across a pool of worker domains.

    One accept thread and one reader thread per connection feed a bounded
    job queue drained by [domains] worker domains. A job with an
    out-of-range field, or whose instance fails the pre-solve gate
    ({!Cloudia.Advisor.gate}: the message names the codes), is answered
    [Failed] and never queued. A full
    queue answers [Rejected] immediately (backpressure) instead of
    buffering; each job
    carries a deadline (its own or the server default) enforced both in
    the queue and inside the solver via its [stop] hook. Results flow
    through the fingerprint-keyed {!Cache}: identical re-submissions are
    answered from a memo when the original solve did not stop on its
    budget ({!Cloudia.Solver.stop_reason}), and new solves of a known matrix reuse cached
    clusterings / rank tables and warm-start from the best incumbent seen
    for that (matrix, graph, objective).

    Telemetry: [serve.jobs], [serve.rejected], [serve.deadline_expired],
    [serve.client_gone] counters, the [serve.queue_depth] gauge, and the
    [serve.request_ms] histogram (enqueue → reply), all always-on. *)

type config = {
  socket_path : string;
  domains : int;            (** worker domains; 0 = accept/reject only,
                                jobs are never executed (tests) *)
  queue_capacity : int;     (** bound on queued-but-unstarted jobs *)
  cache_capacity : int;     (** entries per LRU in the {!Cache} *)
  default_deadline : float; (** seconds, for jobs that name none *)
}

val default_config : socket_path:string -> config
(** 2 domains, queue 64, cache 32, 30 s default deadline. *)

type t

val start : config -> t
(** Bind and listen on [socket_path] (an existing socket file is
    replaced), spawn the worker domains and the accept thread, and
    return immediately. Ignores [SIGPIPE] process-wide — a client
    disconnecting mid-write must surface as [EPIPE], not kill the
    daemon. Raises [Unix.Unix_error] if the socket cannot be bound and
    [Invalid_argument] on a negative domain count or non-positive queue
    capacity. *)

val signal_stop : t -> unit
(** Begin shutdown: sets the stop flag and wakes the accept thread.
    Async-signal-safe (no locks) — call it from a [SIGTERM] handler.
    Idempotent. *)

val wait : t -> unit
(** Block until shutdown completes: in-queue jobs are drained by the
    workers (or rejected with reason ["shutting down"] when there are no
    workers), connections are closed, the socket file unlinked. Call
    after {!signal_stop}; at most once. *)

val stop : t -> unit
(** {!signal_stop} then {!wait}. *)

val latency_snapshot : unit -> Obs.Histogram.snapshot
(** Snapshot of [serve.request_ms] — the daemon CLI prints p50/p99/p999
    from this on shutdown. *)
