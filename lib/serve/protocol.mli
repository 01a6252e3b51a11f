(** Wire protocol of the advising daemon.

    Frames are length-prefixed JSON over a Unix-domain socket: a 4-byte
    big-endian payload length, then one JSON document. Payloads are capped
    at {!max_frame_bytes} (16 MiB — a 64-node job is ~100 KiB, so the cap
    only stops runaway clients). Requests flow client → server, replies
    server → client; replies to concurrent jobs on one connection may
    arrive out of submission order and carry the job [id] for matching.

    Latency-matrix entries round-trip NaN (unsampled pairs) as JSON
    [null] and ±inf as the overflowing literals [1e999]/[-1e999]. *)

exception Protocol_error of string
(** Malformed frame, unknown variant tag, or an oversized frame. Framing
    functions additionally raise [End_of_file] when the peer closes
    mid-frame, and let [Unix.Unix_error] escape. *)

val max_frame_bytes : int

type solver = Cp | Anneal | Greedy | Descent
(** Deployment search strategy for a job: the CP solver, simulated
    annealing, the greedy G2 baseline, or randomized descent (R2D). *)

val solver_to_string : solver -> string
val solver_of_string : string -> solver

type job = {
  id : string;                  (** caller-chosen; echoed in the reply *)
  tenant : string;              (** tenant label for spans and stats *)
  seed : int;                   (** PRNG seed — same job, same answer *)
  solver : solver;
  objective : Cloudia.Cost.objective;
  budget : float;               (** solver wall-clock budget, seconds *)
  deadline : float option;      (** queue + solve deadline, seconds from
                                    enqueue; [None] = server default *)
  max_moves : int option;       (** anneal move budget (makes the run
                                    deterministic and memo-admissible) *)
  clusters : int option;        (** CP cluster-count override *)
  graph : Graphs.Digraph.t;
  costs : Lat_matrix.t;
}

type request = Advise of job | Ping | Stats_request

type reply =
  | Result of {
      r_id : string;
      r_plan : int array;
      r_cost : float;
      r_cached : bool;          (** full result served from the memo *)
      r_warm : bool;            (** solver seeded from a cached incumbent *)
      r_fingerprint : string;   (** cost-matrix fingerprint (hex) *)
      r_latency_ms : float;     (** enqueue → reply, server-side *)
    }
  | Rejected of { j_id : string; reason : string }
      (** backpressure: the job never entered the queue *)
  | Failed of { j_id : string; message : string }
      (** refused before queueing — an out-of-range field ([budget]
          finite and > 0, [deadline] > 0, [max_moves] and [clusters]
          >= 1) or a pre-solve gate error, whose codes the message names
          — or its solver raised *)
  | Pong
  | Stats of (string * int) list

(** {2 JSON codecs} — exposed for tests and alternative transports. *)

val json_of_request : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> request
val json_of_reply : reply -> Obs.Json.t
val reply_of_json : Obs.Json.t -> reply

val matrix_of_json : Obs.Json.t -> Lat_matrix.t
(** Decodes entries straight into a fresh matrix; raises
    {!Protocol_error} on a non-array, a row that is not an array, a
    non-square matrix or an entry that is neither a number nor [null],
    whichever comes first in reading order. *)

(** {2 Framing} *)

val write_frame : Unix.file_descr -> string -> unit
val read_frame : Unix.file_descr -> string option
(** [None] on a clean EOF between frames; [End_of_file] mid-frame. *)

val send_request : Unix.file_descr -> request -> unit
val send_reply : Unix.file_descr -> reply -> unit
(** The document is written once, into a spare frame buffer that grows
    by doubling, and sent as one buffer. A document past
    {!max_frame_bytes} raises {!Protocol_error} before any byte of it is
    sent. *)

val recv_request : Unix.file_descr -> request option
val recv_reply : Unix.file_descr -> reply option

val recv_json : Unix.file_descr -> Obs.Json.t option
(** The document of the next frame, which {!recv_request} and
    {!recv_reply} then decode: [None] on a clean EOF between frames,
    [End_of_file] mid-frame, {!Protocol_error} on an oversized length
    header or a payload that is not JSON. Memory follows the bytes
    received, here and in {!read_frame}: a payload of 2 KB or more is
    read into a buffer that starts as a spare kept from earlier frames
    (up to 1 MiB), or a fresh one of at most 64 KiB, and doubles as
    bytes arrive, so a header alone cannot make the reader reserve
    16 MiB. *)

val request_id : Obs.Json.t -> string
(** The job id a request document names, or [""]. *)
