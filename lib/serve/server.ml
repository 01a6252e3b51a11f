(* The advising daemon.

   Threading layout: one accept thread plus one reader thread per
   connection (systhreads — they spend their lives blocked in [accept]/
   [read], where the runtime lock is released), and [config.domains]
   worker domains that burn CPU in the solvers. Readers push jobs into
   one bounded queue; workers pop. The queue is the backpressure point:
   when it is full the reader replies [Rejected] immediately instead of
   buffering — the client learns the daemon is saturated while its
   deadline still has value.

   Shutdown: [signal_stop] only sets the stop flag and wakes the accept
   thread with a dummy self-connection (async-signal-safe — no locks, so
   it can run inside a signal handler). [wait] then joins the accept
   thread, lets the workers drain the queue, rejects anything left (the
   domains = 0 test configuration has no workers), shuts down every
   connection to unblock its reader, and unlinks the socket. *)

let c_jobs = Obs.Counter.make "serve.jobs"
let c_rejected = Obs.Counter.make "serve.rejected"
let c_expired = Obs.Counter.make "serve.deadline_expired"
let c_client_gone = Obs.Counter.make "serve.client_gone"
let g_queue_depth = Obs.Gauge.make "serve.queue_depth"
let h_request_ms = Obs.Histogram.make "serve.request_ms"

type config = {
  socket_path : string;
  domains : int;
  queue_capacity : int;
  cache_capacity : int;
  default_deadline : float;
}

let default_config ~socket_path =
  {
    socket_path;
    domains = 2;
    queue_capacity = 64;
    cache_capacity = 32;
    default_deadline = 30.0;
  }

(* A connection: the reader owns [fd] for reads; replies (from readers
   and workers alike) serialize on [wlock]. [pending] counts queued jobs
   whose reply will still be written; the fd closes when the reader has
   exited ([alive = false]) and the last pending reply is out — whichever
   side gets there last closes, guarded by [closed]. *)
type conn = {
  fd : Unix.file_descr;
  wlock : Mutex.t;
  mutable alive : bool;
  mutable pending : int;
  mutable closed : bool;
}

type item = {
  job : Protocol.job;
  item_conn : conn;
  enqueued_at : float;
  deadline_at : float;
}

type t = {
  config : config;
  listen_fd : Unix.file_descr;
  cache : Cache.t;
  stopping : bool Atomic.t;
  qlock : Mutex.t;
  qcond : Condition.t;
  queue : item Queue.t;
  clock : Mutex.t;  (* guards [conns] and [readers] *)
  mutable conns : conn list;
  mutable readers : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable workers : unit Domain.t list;
}

let locked m f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

(* --- connection plumbing --------------------------------------------- *)

let close_if_done_locked conn =
  if (not conn.alive) && conn.pending = 0 && not conn.closed then begin
    conn.closed <- true;
    try Unix.close conn.fd with Unix.Unix_error _ -> ()
  end

(* Best-effort reply: a vanished client must not kill a worker. *)
let reply conn r =
  locked conn.wlock (fun () ->
      if not conn.closed then
        try Protocol.send_reply conn.fd r
        with
        | Unix.Unix_error ((EPIPE | ECONNRESET | EBADF), _, _)
        | Sys_error _
        ->
          Obs.Counter.incr c_client_gone)

let job_done conn =
  locked conn.wlock (fun () ->
      conn.pending <- conn.pending - 1;
      close_if_done_locked conn)

(* --- the solve itself ------------------------------------------------ *)

type outcome = { plan : int array; cost : float; cached : bool; warm : bool }

let effective_clusters (job : Protocol.job) =
  match job.clusters with
  | Some k -> Some k
  | None -> Cloudia.Cp_solver.default_options.clusters

let memo_key (job : Protocol.job) ~inc_key =
  Printf.sprintf "%s|%s|%d|%.17g|%s|%s" inc_key
    (Protocol.solver_to_string job.solver)
    job.seed job.budget
    (match job.max_moves with Some m -> string_of_int m | None -> "-")
    (match effective_clusters job with Some k -> string_of_int k | None -> "-")

(* The one place the wire's solver names meet the library's. *)
let solver_of_job (job : Protocol.job) =
  match job.solver with
  | Protocol.Cp ->
      Cloudia.Solver.Cp
        { Cloudia.Cp_solver.default_options with clusters = effective_clusters job }
  | Protocol.Anneal ->
      Cloudia.Solver.Anneal { Cloudia.Anneal.default_options with max_moves = job.max_moves }
  | Protocol.Greedy -> Cloudia.Solver.Greedy_g2
  | Protocol.Descent -> Cloudia.Solver.Descent job.budget

let execute t (job : Protocol.job) ~deadline_at =
  let problem = Cloudia.Types.of_matrix ~graph:job.graph job.costs in
  let fp = Cache.fingerprint job.costs in
  let inc_key =
    String.concat "|"
      [ fp; Cache.graph_key job.graph; Cloudia.Cost.objective_to_string job.objective ]
  in
  let key = memo_key job ~inc_key in
  match Cache.memo_find t.cache ~key with
  | Some { Cache.plan; cost } -> (fp, { plan; cost; cached = true; warm = false })
  | None ->
      let solver = solver_of_job job in
      let stop () = Atomic.get t.stopping || Obs.Clock.now_s () > deadline_at in
      let budget = Float.min job.budget (deadline_at -. Obs.Clock.now_s ()) in
      let init = Option.map (fun i -> i.Cache.plan) (Cache.incumbent t.cache ~key:inc_key) in
      let clustering () =
        let k = effective_clusters job in
        let ckey = fp ^ "#" ^ match k with Some k -> string_of_int k | None -> "exact" in
        Cache.clustering t.cache ~key:ckey (fun () ->
            match k with
            | Some k -> Cloudia.Clustering.cluster ~k job.costs
            | None -> Cloudia.Clustering.none job.costs)
      in
      let ranks () =
        Cache.ranks t.cache ~key:fp (fun () -> Cloudia.Delta_cost.ranks_of_matrix job.costs)
      in
      let o =
        Cloudia.Solver.run ~stop ?init ~clustering ~ranks ~time_limit:budget solver
          (Prng.create job.seed) job.objective problem
      in
      let plan = o.Cloudia.Solver.plan and cost = o.Cloudia.Solver.cost in
      if Float.is_finite cost then begin
        Cache.note_incumbent t.cache ~key:inc_key plan cost;
        (* A run that did not stop on the clock is a pure function of the
           job, so an identical re-submission may be answered from the
           memo. *)
        if o.Cloudia.Solver.stop_reason <> Cloudia.Solver.Budget then
          Cache.memo_add t.cache ~key plan cost
      end;
      let warm = init <> None && Cloudia.Solver.uses_init solver in
      (fp, { plan; cost; cached = false; warm })

let run_item t item =
  let { job; item_conn = conn; enqueued_at; deadline_at } = item in
  let r =
    if Obs.Clock.now_s () > deadline_at then begin
      Obs.Counter.incr c_expired;
      Protocol.Rejected { j_id = job.id; reason = "deadline expired in queue" }
    end
    else
      match
        Obs.Resource.with_ "serve.request" (fun () -> execute t job ~deadline_at)
      with
      | fp, o ->
          Obs.Counter.incr c_jobs;
          Protocol.Result
            {
              r_id = job.id;
              r_plan = o.plan;
              r_cost = o.cost;
              r_cached = o.cached;
              r_warm = o.warm;
              r_fingerprint = fp;
              r_latency_ms = (Obs.Clock.now_s () -. enqueued_at) *. 1000.0;
            }
      | exception Invalid_argument m | exception Failure m ->
          Protocol.Failed { j_id = job.id; message = m }
      | exception e -> Protocol.Failed { j_id = job.id; message = Printexc.to_string e }
  in
  Obs.Histogram.record h_request_ms ((Obs.Clock.now_s () -. enqueued_at) *. 1000.0);
  reply conn r;
  job_done conn

(* Workers exit only on [stopping] with an empty queue, so a stopping
   daemon still drains every accepted job. *)
let worker t () =
  let rec loop () =
    Mutex.lock t.qlock;
    while Queue.is_empty t.queue && not (Atomic.get t.stopping) do
      Condition.wait t.qcond t.qlock
    done;
    if Queue.is_empty t.queue then (Mutex.unlock t.qlock; ())
    else begin
      let item = Queue.pop t.queue in
      Obs.Gauge.set g_queue_depth (float_of_int (Queue.length t.queue));
      Mutex.unlock t.qlock;
      run_item t item;
      loop ()
    end
  in
  loop ()

(* --- per-connection reader ------------------------------------------- *)

let stats_reply t =
  let qd = locked t.qlock (fun () -> Queue.length t.queue) in
  let serve_counters =
    List.filter
      (fun (k, _) -> String.starts_with ~prefix:"serve." k)
      (Obs.Counter.snapshot ())
  in
  Protocol.Stats ((("queue_depth", qd) :: serve_counters) @ Cache.stats t.cache)

(* Out-of-range fields are refused before the job is queued, with the
   same message whichever solver the job names. *)
let invalid_field (job : Protocol.job) =
  let below_one = function Some v -> v < 1 | None -> false in
  if not (Float.is_finite job.budget && job.budget > 0.0) then
    Some (Printf.sprintf "invalid job: budget must be finite and > 0 (got %g)" job.budget)
  else
    match job.deadline with
    | Some d when not (d > 0.0) ->
        Some (Printf.sprintf "invalid job: deadline must be > 0 (got %g)" d)
    | _ ->
        if below_one job.max_moves then Some "invalid job: max_moves must be >= 1"
        else if below_one job.clusters then Some "invalid job: clusters must be >= 1"
        else None

(* Then the instance itself goes through the advisor's pre-solve gate,
   so a job the CLI would refuse never reaches a worker. *)
let rejection (job : Protocol.job) =
  match invalid_field job with
  | Some _ as message -> message
  | None -> (
      match
        Cloudia.Advisor.gate ~full:false (Some job.graph) (Some job.costs) job.objective
          (Some (solver_of_job job))
      with
      | exception Invalid_argument m -> Some m
      | ds -> (
          match Lint.Diagnostic.errors ds with
          | [] -> None
          | errors ->
              let named = List.map Lint.Diagnostic.to_string (Lint.Diagnostic.sort errors) in
              Some ("invalid job: " ^ String.concat "; " named)))

let enqueue t conn (job : Protocol.job) =
  let now = Obs.Clock.now_s () in
  let deadline =
    match job.deadline with Some d -> d | None -> t.config.default_deadline
  in
  let item =
    { job; item_conn = conn; enqueued_at = now; deadline_at = now +. deadline }
  in
  let verdict =
    locked t.qlock (fun () ->
        if Atomic.get t.stopping then Error "shutting down"
        else if Queue.length t.queue >= t.config.queue_capacity then Error "queue full"
        else begin
          locked conn.wlock (fun () -> conn.pending <- conn.pending + 1);
          Queue.push item t.queue;
          Obs.Gauge.set g_queue_depth (float_of_int (Queue.length t.queue));
          Condition.signal t.qcond;
          Ok ()
        end)
  in
  match verdict with
  | Ok () -> ()
  | Error reason ->
      Obs.Counter.incr c_rejected;
      reply conn (Protocol.Rejected { j_id = job.id; reason })

let reader t conn () =
  let rec loop () =
    match Protocol.recv_request conn.fd with
    | None -> ()
    | Some Protocol.Ping ->
        reply conn Protocol.Pong;
        loop ()
    | Some Protocol.Stats_request ->
        reply conn (stats_reply t);
        loop ()
    | Some (Protocol.Advise job) ->
        (match rejection job with
        | Some message -> reply conn (Protocol.Failed { j_id = job.id; message })
        | None -> enqueue t conn job);
        loop ()
    | exception Protocol.Protocol_error m ->
        (* Unframeable garbage: answer once, then drop the connection —
           resynchronizing an unknown stream position is hopeless. *)
        reply conn (Protocol.Failed { j_id = ""; message = m })
    | exception (End_of_file | Unix.Unix_error (_, _, _)) -> ()
  in
  loop ();
  locked conn.wlock (fun () ->
      conn.alive <- false;
      close_if_done_locked conn)

let accept_loop t () =
  let rec loop () =
    match Unix.accept t.listen_fd with
    | exception Unix.Unix_error (_, _, _) ->
        if Atomic.get t.stopping then () else loop ()
    | fd, _ ->
        if Atomic.get t.stopping then (Unix.close fd; ())
        else begin
          let conn =
            { fd; wlock = Mutex.create (); alive = true; pending = 0; closed = false }
          in
          let th = Thread.create (reader t conn) () in
          locked t.clock (fun () ->
              t.conns <- conn :: t.conns;
              t.readers <- th :: t.readers);
          loop ()
        end
  in
  loop ()

(* --- lifecycle ------------------------------------------------------- *)

let start config =
  if config.domains < 0 then invalid_arg "Server.start: negative domain count";
  if config.queue_capacity <= 0 then invalid_arg "Server.start: queue capacity";
  (* A mid-write client disconnect must be an EPIPE error, not a fatal
     signal. *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  (try Unix.unlink config.socket_path with Unix.Unix_error _ -> ());
  let listen_fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try
     Unix.bind listen_fd (ADDR_UNIX config.socket_path);
     Unix.listen listen_fd 16
   with e ->
     Unix.close listen_fd;
     raise e);
  let t =
    {
      config;
      listen_fd;
      cache = Cache.create ~capacity:config.cache_capacity;
      stopping = Atomic.make false;
      qlock = Mutex.create ();
      qcond = Condition.create ();
      queue = Queue.create ();
      clock = Mutex.create ();
      conns = [];
      readers = [];
      accept_thread = None;
      workers = [];
    }
  in
  t.workers <- List.init config.domains (fun _ -> Domain.spawn (worker t));
  t.accept_thread <- Some (Thread.create (accept_loop t) ());
  t

(* Async-signal-safe: one atomic store plus a connect that the accept
   thread consumes. *)
let signal_stop t =
  Atomic.set t.stopping true;
  let fd = Unix.socket PF_UNIX SOCK_STREAM 0 in
  (try Unix.connect fd (ADDR_UNIX t.config.socket_path)
   with Unix.Unix_error _ -> ());
  try Unix.close fd with Unix.Unix_error _ -> ()

let wait t =
  (match t.accept_thread with Some th -> Thread.join th | None -> ());
  t.accept_thread <- None;
  (* Wake every worker; they drain the queue and exit. *)
  locked t.qlock (fun () -> Condition.broadcast t.qcond);
  List.iter Domain.join t.workers;
  t.workers <- [];
  (* No workers (domains = 0) leaves accepted jobs behind: reject them
     explicitly rather than ghosting the clients. *)
  let leftovers =
    locked t.qlock (fun () ->
        let items = List.of_seq (Queue.to_seq t.queue) in
        Queue.clear t.queue;
        items)
  in
  List.iter
    (fun item ->
      Obs.Counter.incr c_rejected;
      reply item.item_conn
        (Protocol.Rejected { j_id = item.job.id; reason = "shutting down" });
      job_done item.item_conn)
    leftovers;
  Obs.Gauge.set g_queue_depth 0.0;
  (* Unblock the readers and collect them. *)
  let conns, readers =
    locked t.clock (fun () ->
        let cs, rs = (t.conns, t.readers) in
        t.conns <- [];
        t.readers <- [];
        (cs, rs))
  in
  List.iter
    (fun conn ->
      locked conn.wlock (fun () ->
          if not conn.closed then
            try Unix.shutdown conn.fd SHUTDOWN_ALL with Unix.Unix_error _ -> ()))
    conns;
  List.iter Thread.join readers;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  try Unix.unlink t.config.socket_path with Unix.Unix_error _ -> ()

let stop t =
  signal_stop t;
  wait t

let latency_snapshot () = Obs.Histogram.snapshot_of h_request_ms
