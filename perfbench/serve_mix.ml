(* The serve-mix workload: a [Serve.Server] daemon started in process
   with one worker domain, driven open-loop over two client connections
   on a seeded, fixed arrival schedule. Two request classes:

   - solve: a new (matrix, seed) pair annealed under a fixed move budget —
     mostly LLNDP on 64-node meshes, a minority LPNDP on 64-node DAGs.
     The matrix pool is small, so most solves find the matrix's rank
     table (and an incumbent to warm-start from) already cached;
   - memo: an exact re-submission of a solve due at least [memo_after_s]
     earlier, which the daemon must answer from its result memo.

   Each request is timed from its due time, not its send time, so a
   stalled generator or daemon charges its wait to later requests. *)

type klass = Solve | Memo

type request = {
  id : string;
  klass : klass;
  due_s : float;  (* offset from the schedule's start *)
  conn : int;
  job : Serve.Protocol.job;
  original : int;  (* memo: index of the solve it repeats; solve: itself *)
}

(* Workload shape. The rate keeps the worker domain and the generator's
   domain each about a fifth busy on a 2-core x86-64 box (a request
   costs about 10 ms of daemon service and 9 ms of codec in the
   generator's domain), so latency measures service, not backlog. The
   class mix is a fixed pattern — of every 5 requests, 2 are memo
   repeats once a solve is old enough; of every 4 solves, 1 is LPNDP —
   so the quantiles of all requests sit at the same place in the class
   distributions for every seed. *)
let rate_per_s = 20.0
let memo_slots = [ 1; 3 ] (* request index mod 5 *)
let lp_every = 4
let memo_after_s = 1.0
let ll_moves = 20_000
let lp_moves = 4_000
let instances = 77
let ll_matrices = 32
let lp_matrices = 16

let mesh = Graphs.Templates.mesh2d ~rows:8 ~cols:8

let matrix rng =
  let env = Cloudsim.Env.allocate rng (Cloudsim.Provider.get Cloudsim.Provider.Ec2) ~count:instances in
  Cloudia.Metrics.estimate rng env Cloudia.Metrics.Mean ~samples_per_pair:10

type pool = {
  ll : Lat_matrix.t array;
  lp : (Graphs.Digraph.t * Lat_matrix.t) array;
}

let make_pool rng =
  {
    ll = Array.init ll_matrices (fun _ -> matrix rng);
    lp =
      Array.init lp_matrices (fun _ ->
          let dag = Graphs.Templates.random_dag rng ~n:64 ~edge_prob:0.08 in
          (dag, matrix rng));
  }

let job ~id ~seed ~objective ~moves ~graph ~costs =
  {
    Serve.Protocol.id;
    tenant = "perfbench";
    seed;
    solver = Serve.Protocol.Anneal;
    objective;
    budget = 600.0;
    deadline = Some 600.0;
    max_moves = Some moves;
    clusters = None;
    graph;
    costs;
  }

(* The arrival schedule: [rate_per_s * seconds] requests (at least 3 s
   of them, so memo repeats exist), inter-arrival gaps uniform in
   [0.5, 1.5] of the mean (never bunched, so arrival order is the due
   order), alternating connections. *)
let schedule rng pool ~seconds =
  let n = int_of_float (rate_per_s *. Float.max 3.0 seconds) in
  let gap = 1.0 /. rate_per_s in
  let reqs = Array.make n None in
  (* solve indices in due order; the first [!eligible] were due at least
     [memo_after_s] before the current request *)
  let solves = Array.make n 0 and nsolves = ref 0 and eligible = ref 0 in
  let due = ref 0.0 in
  for i = 0 to n - 1 do
    due := !due +. (gap *. (0.5 +. Prng.uniform rng));
    while
      !eligible < !nsolves
      && (Option.get reqs.(solves.(!eligible))).due_s <= !due -. memo_after_s
    do
      incr eligible
    done;
    let id = Printf.sprintf "r%d" i in
    let r =
      if !eligible > 0 && List.mem (i mod 5) memo_slots then
        let j = solves.(Prng.int rng !eligible) in
        let o = Option.get reqs.(j) in
        { id; klass = Memo; due_s = !due; conn = i mod 2; job = { o.job with id }; original = j }
      else begin
        (* distinct seeds: every solve is a new (matrix, seed) pair *)
        let seed = (1000 * (i + 1)) + Prng.int rng 1000 in
        let job =
          if !nsolves mod lp_every = lp_every - 1 then
            let graph, costs = pool.lp.(Prng.int rng lp_matrices) in
            job ~id ~seed ~objective:Cloudia.Cost.Longest_path ~moves:lp_moves ~graph ~costs
          else
            job ~id ~seed ~objective:Cloudia.Cost.Longest_link ~moves:ll_moves ~graph:mesh
              ~costs:pool.ll.(Prng.int rng ll_matrices)
        in
        solves.(!nsolves) <- i;
        incr nsolves;
        { id; klass = Solve; due_s = !due; conn = i mod 2; job; original = i }
      end
    in
    reqs.(i) <- Some r
  done;
  Array.map Option.get reqs

(* What the client saw for one request. *)
type seen = {
  mutable sent_s : float;  (* absolute: send started *)
  mutable recv_s : float;  (* absolute: reply decoded *)
  mutable reply : Serve.Protocol.reply option;
}

type session = {
  server : Serve.Server.t;
  clients : Serve.Client.t array;
  socket : string;
}

let open_session ~cache_capacity =
  let dir = ".bench_out" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let socket = Filename.concat dir (Printf.sprintf "serve-%d.sock" (Unix.getpid ())) in
  let server =
    Serve.Server.start
      {
        (Serve.Server.default_config ~socket_path:socket) with
        domains = 1;
        queue_capacity = 256;
        cache_capacity;
      }
  in
  let clients = Array.init 2 (fun _ -> Serve.Client.connect socket) in
  Array.iter Serve.Client.ping clients;
  { server; clients; socket }

let close_session s =
  Array.iter Serve.Client.close s.clients;
  Serve.Server.stop s.server

type run = {
  setup_s : float;
  improvements : float list;  (* over the quality set *)
  requests : request array;
  seen : seen array;
  start_s : float;
  stats : (string * int) list;
  sent : int;
  rejected : int;
  failed : int;
  pool : pool;
  moves_tried : int;  (* anneal moves the daemon ran during the schedule *)
}

let problem (job : Serve.Protocol.job) = Cloudia.Types.of_matrix ~graph:job.graph job.costs

(* Output checks: every reply a valid injection whose cost re-evaluates
   exactly; memo replies served from the memo with the original's plan
   and cost; solves never served from it; the anneal moves tried exactly
   the solves' budgets (a shortfall means a solve hit the clock). Failed
   replies fail the run; rejected ones only count. *)
let check r =
  let rejected = ref 0 and failed = ref 0 and budget = ref 0 in
  Array.iteri
    (fun i (req : request) ->
      match r.seen.(i).reply with
      | None -> raise (Report.Check_failed ("serve-mix: no reply to " ^ req.id))
      | Some (Serve.Protocol.Rejected _) -> incr rejected
      | Some (Serve.Protocol.Failed { message; _ }) ->
          Printf.eprintf "serve-mix: %s failed: %s\n%!" req.id message;
          incr failed
      | Some (Serve.Protocol.Result { r_plan; r_cost; r_cached; _ }) -> (
          let p = problem req.job in
          Report.check (Cloudia.Types.is_valid p r_plan) "serve-mix: %s: invalid plan" req.id;
          let again = Cloudia.Cost.eval req.job.objective p r_plan in
          Report.check
            (Int64.equal (Int64.bits_of_float again) (Int64.bits_of_float r_cost))
            "serve-mix: %s: Cost.eval re-check gave %.17g, reported %.17g" req.id again r_cost;
          match req.klass with
          | Solve ->
              Report.check (not r_cached) "serve-mix: new solve %s answered from the memo" req.id;
              budget := !budget + Option.get req.job.max_moves
          | Memo -> (
              Report.check r_cached "serve-mix: repeat %s missed the memo" req.id;
              match r.seen.(req.original).reply with
              | Some (Serve.Protocol.Result o) ->
                  Report.check
                    (o.r_plan = r_plan && Int64.equal (Int64.bits_of_float o.r_cost)
                                            (Int64.bits_of_float r_cost))
                    "serve-mix: memo reply %s differs from its original" req.id
              | _ -> ()))
      | Some (Serve.Protocol.Pong | Serve.Protocol.Stats _) ->
          raise (Report.Check_failed ("serve-mix: unexpected reply to " ^ req.id)))
    r.requests;
  Report.check (r.moves_tried = !budget)
    "serve-mix: anneal tried %d moves, the solves' budgets total %d" r.moves_tried !budget;
  { r with rejected = !rejected; failed = !failed }

(* Plan quality is measured, as for advise, on a fixed set of solves, the
   same for every seed: [quality_solves] new (matrix, seed) pairs in the
   schedule's mix over matrices of their own, sent one at a time after
   the schedule. No schedule matrix shares their fingerprints, so nothing
   the schedule cached warm-starts them, and every run gets the same
   answers. *)
let quality_seed = 20_120_801
let quality_solves = 24

let quality client =
  let rng = Prng.split (Prng.create quality_seed) in
  let ll = Array.init 4 (fun _ -> matrix rng) in
  let lp =
    Array.init 2 (fun _ ->
        let dag = Graphs.Templates.random_dag rng ~n:64 ~edge_prob:0.08 in
        (dag, matrix rng))
  in
  List.init quality_solves (fun i ->
      let id = Printf.sprintf "q%d" i in
      let job =
        if i mod lp_every = lp_every - 1 then
          let graph, costs = lp.(i / lp_every mod Array.length lp) in
          job ~id ~seed:(i + 1) ~objective:Cloudia.Cost.Longest_path ~moves:lp_moves ~graph ~costs
        else
          job ~id ~seed:(i + 1) ~objective:Cloudia.Cost.Longest_link ~moves:ll_moves ~graph:mesh
            ~costs:ll.(i mod Array.length ll)
      in
      match Serve.Client.advise client job with
      | Serve.Protocol.Result { r_plan; r_cost; r_cached; _ } ->
          let p = problem job in
          Report.check
            (Cloudia.Types.is_valid p r_plan && not r_cached)
            "serve-mix: quality solve %s: invalid plan or answered from the memo" id;
          let again = Cloudia.Cost.eval job.objective p r_plan in
          Report.check
            (Int64.equal (Int64.bits_of_float again) (Int64.bits_of_float r_cost))
            "serve-mix: %s: Cost.eval re-check gave %.17g, reported %.17g" id again r_cost;
          let default = Cloudia.Cost.eval job.objective p (Cloudia.Types.identity_plan p) in
          Cloudia.Cost.improvement ~default ~optimized:r_cost
      | _ -> raise (Report.Check_failed ("serve-mix: quality solve " ^ id ^ " got no result")))

let setups = 5

let run ~seed ~seconds =
  (* Set-up, [setups] times (median reported): the seeded job pool and
     schedule, a fresh daemon, two connections. The last one is kept. *)
  let prepare () =
    let t0 = Obs.Clock.now_s () in
    let rng = Prng.create seed in
    let pool = make_pool rng in
    let requests = schedule rng pool ~seconds in
    let solves = Array.fold_left (fun n r -> if r.klass = Solve then n + 1 else n) 0 requests in
    (* Every solve's memo entry must survive until its repeats arrive:
       the caches hold the whole run's working set. *)
    let session = open_session ~cache_capacity:(solves + 16) in
    (Obs.Clock.now_s () -. t0, pool, requests, session)
  in
  let rec setup k times =
    let dt, pool, requests, session = prepare () in
    if k < setups then (close_session session; setup (k + 1) (dt :: times))
    else (Report.median (dt :: times), pool, requests, session)
  in
  let setup_s, pool, requests, session = setup 1 [] in
  let n = Array.length requests in
  let seen = Array.init n (fun _ -> { sent_s = nan; recv_s = nan; reply = None }) in
  let index = Hashtbl.create n in
  Array.iteri (fun i r -> Hashtbl.replace index r.id i) requests;
  let before = Obs.Counter.snapshot () in
  let reader c () =
    let fd = Serve.Client.raw_fd session.clients.(c) in
    let expected = Array.fold_left (fun k r -> if r.conn = c then k + 1 else k) 0 requests in
    for _ = 1 to expected do
      match Serve.Protocol.recv_reply fd with
      | None -> failwith "serve-mix: daemon closed the connection"
      | Some reply ->
          let now = Obs.Clock.now_s () in
          let id =
            match reply with
            | Serve.Protocol.Result { r_id; _ } -> r_id
            | Rejected { j_id; _ } | Failed { j_id; _ } -> j_id
            | Pong | Stats _ -> failwith "serve-mix: unexpected reply"
          in
          let s = seen.(Hashtbl.find index id) in
          s.recv_s <- now;
          s.reply <- Some reply
    done
  in
  let readers = Array.init 2 (fun c -> Thread.create (reader c) ()) in
  let start_s = Obs.Clock.now_s () in
  Array.iteri
    (fun i r ->
      let wait = start_s +. r.due_s -. Obs.Clock.now_s () in
      if wait > 0.0 then Unix.sleepf wait;
      seen.(i).sent_s <- Obs.Clock.now_s ();
      Serve.Protocol.send_request (Serve.Client.raw_fd session.clients.(r.conn))
        (Serve.Protocol.Advise r.job))
    requests;
  Array.iter Thread.join readers;
  let stats = Serve.Client.stats session.clients.(0) in
  let moves = Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()) in
  let improvements = quality session.clients.(0) in
  close_session session;
  let r =
    {
      setup_s;
      improvements;
      requests;
      seen;
      start_s;
      stats;
      sent = n;
      rejected = 0;
      failed = 0;
      pool;
      moves_tried = Option.value ~default:0 (List.assoc_opt "anneal.moves_tried" moves);
    }
  in
  check r

(* Client-side latency of request [i], from its due time, in ms; a
   rejected request never meets any latency limit. *)
let latency_ms r i =
  match r.seen.(i).reply with
  | Some (Serve.Protocol.Result _) ->
      (r.seen.(i).recv_s -. (r.start_s +. r.requests.(i).due_s)) *. 1000.0
  | _ -> infinity

let class_latencies r k =
  List.filter_map
    (fun i -> if r.requests.(i).klass = k then Some (latency_ms r i) else None)
    (List.init (Array.length r.requests) Fun.id)

let end_to_end r =
  let all = List.init (Array.length r.requests) (latency_ms r) in
  let solves = class_latencies r Solve in
  [
    ("setup_s", r.setup_s);
    (* the schema asks every workload for [plan_s]: here it mirrors
       [solve_p50_ms] *)
    ("plan_s", Report.median solves /. 1000.0);
    ( "improvement_pct",
      List.fold_left ( +. ) 0.0 r.improvements /. float_of_int (List.length r.improvements) );
    ("req_p50_ms", Report.median all);
    ("req_p90_ms", Report.quantile 0.9 all);
    ("solve_p50_ms", Report.median solves);
    ("memo_p50_ms", Report.median (class_latencies r Memo));
  ]

(* Solves re-run in process per objective for the anneal rates. *)
let rerun_solves = 8

(* Per-layer numbers. Server-side figures come from the replies and the
   daemon's Stats reply; layer timings from re-running the workload's own
   jobs through each layer's public function under benchmark spans. *)
let per_layer r =
  Spans.enabled := true;
  let n = Array.length r.requests in
  let idx = List.init n Fun.id in
  let results =
    List.filter_map
      (fun i ->
        match r.seen.(i).reply with
        | Some (Serve.Protocol.Result { r_latency_ms; r_cached; r_warm; _ }) ->
            Some (i, r_latency_ms, r_cached, r_warm)
        | _ -> None)
      idx
  in
  let frac p xs =
    Report.ratio
      (float_of_int (List.length (List.filter p xs)))
      (float_of_int (List.length xs))
  in
  let stat name = float_of_int (Option.value ~default:0 (List.assoc_opt name r.stats)) in
  let hits = stat "serve.cache_hits" and misses = stat "serve.cache_misses" in
  (* Re-run every request's codec and fingerprint, and a few solves of
     each objective, each under its own span. *)
  let frame_bytes =
    List.map
      (fun i ->
        let req = Serve.Protocol.Advise r.requests.(i).job in
        let span name f = Spans.with_ ~request:(n + i) name f in
        let text =
          span "protocol.encode" (fun () ->
              Obs.Json.to_string (Serve.Protocol.json_of_request req))
        in
        ignore
          (span "protocol.decode" (fun () ->
               Serve.Protocol.request_of_json (Obs.Json.parse text)));
        ignore
          (span "lat_matrix.fingerprint" (fun () ->
               Lat_matrix.fingerprint_hex r.requests.(i).job.costs));
        float_of_int (String.length text))
      idx
  in
  Array.iteri
    (fun k costs ->
      ignore
        (Spans.with_ ~request:(2 * n + k) "delta_cost.ranks" (fun () ->
             Cloudia.Delta_cost.ranks_of_matrix costs)))
    r.pool.ll;
  let moves_per_s objective name =
    let solves =
      List.filter
        (fun i ->
          r.requests.(i).klass = Solve && r.requests.(i).job.objective = objective)
        idx
    in
    let rates =
      List.filteri (fun k _ -> k < rerun_solves) solves
      |> List.map (fun i ->
             let job = r.requests.(i).job in
             let options =
               {
                 Cloudia.Anneal.default_options with
                 time_limit = job.budget;
                 max_moves = job.max_moves;
               }
             in
             let t0 = Obs.Clock.now_s () in
             let res =
               Spans.with_ ~request:(3 * n + i) name (fun () ->
                   Cloudia.Anneal.solve_objective ~options (Prng.create job.seed) objective
                     (problem job))
             in
             float_of_int res.Cloudia.Anneal.moves_tried /. (Obs.Clock.now_s () -. t0))
    in
    if rates = [] then 0.0 else Report.median rates
  in
  let ll = moves_per_s Cloudia.Cost.Longest_link "anneal.ll"
  and lp = moves_per_s Cloudia.Cost.Longest_path "anneal.lp" in
  [
    ("protocol.encode_ms", Spans.median_self_ms "protocol.encode");
    ("protocol.decode_ms", Spans.median_self_ms "protocol.decode");
    ("protocol.frame_kib", Report.median frame_bytes /. 1024.0);
    ("lat_matrix.fingerprint_ms", Spans.median_self_ms "lat_matrix.fingerprint");
    ("server.p50_ms", Report.median (List.map (fun (_, ms, _, _) -> ms) results));
    ( "wire.p50_ms",
      Report.median
        (List.map
           (fun (i, ms, _, _) -> ((r.seen.(i).recv_s -. r.seen.(i).sent_s) *. 1000.0) -. ms)
           results) );
    ( "gen.lag_p90_ms",
      Report.quantile 0.9
        (List.map (fun i -> (r.seen.(i).sent_s -. r.start_s -. r.requests.(i).due_s) *. 1000.0) idx)
    );
    ("cache.hit_frac", Report.ratio hits (hits +. misses));
    ("cache.memo_frac", frac (fun (_, _, cached, _) -> cached) results);
    ( "cache.warm_frac",
      frac (fun (_, _, _, warm) -> warm)
        (List.filter (fun (i, _, _, _) -> r.requests.(i).klass = Solve) results) );
    ("anneal.ll_moves_per_s", ll);
    ("anneal.lp_moves_per_s", lp);
    ("delta_cost.ranks_ms", Spans.median_self_ms "delta_cost.ranks");
    ("serve.sent", float_of_int r.sent);
    ("serve.succeeded", float_of_int (List.length results));
    ("serve.rejected", float_of_int r.rejected);
    ("serve.failed", float_of_int r.failed);
  ]
