let no_stop () = false

(* Counts every candidate plan drawn, bootstrap seeding included. *)
let c_trials = Obs.Counter.make "random_search.trials"

let r1_eval ?(stop = no_stop) ?on_improve rng ~eval problem ~trials =
  if trials <= 0 then invalid_arg "Random_search.r1: need a positive trial count";
  let improved plan cost =
    match on_improve with Some f -> f plan cost | None -> ()
  in
  let best_plan = ref (Types.random_plan rng problem) in
  let best_cost = ref (eval !best_plan) in
  improved !best_plan !best_cost;
  let drawn = ref 1 in
  (try
     for _ = 2 to trials do
       if stop () then raise Exit;
       let plan = Types.random_plan rng problem in
       let c = eval plan in
       incr drawn;
       if c < !best_cost then begin
         best_cost := c;
         best_plan := plan;
         improved plan c
       end
     done
   with Exit -> ());
  Obs.Counter.add c_trials !drawn;
  (!best_plan, !best_cost)

let r2_eval ?(stop = no_stop) ?on_improve ?(now = Obs.Clock.now_s) rng ~eval problem
    ~time_limit =
  if time_limit <= 0.0 then invalid_arg "Random_search.r2: need a positive time limit";
  Obs.Span.with_ "random_search.r2" @@ fun () ->
  let obs_stream = Obs.Incumbent.stream "random" in
  let improved plan cost =
    ignore (Obs.Incumbent.observe obs_stream cost : bool);
    match on_improve with Some f -> f plan cost | None -> ()
  in
  let deadline = now () +. time_limit in
  let best_plan = ref (Types.random_plan rng problem) in
  let best_cost = ref (eval !best_plan) in
  improved !best_plan !best_cost;
  (* Later trials draw into two reused buffers, with the same PRNG draws
     as [Types.random_plan], and copy a plan only when it improves: fewer
     minor collections, each of which stops every domain of a parallel
     gang. *)
  let perm = Array.make (Types.instance_count problem) 0 in
  let plan = Array.make (Types.node_count problem) 0 in
  let trials = ref 1 in
  while (not (stop ())) && now () < deadline do
    for j = 0 to Array.length perm - 1 do
      perm.(j) <- j
    done;
    Prng.shuffle rng perm;
    Array.blit perm 0 plan 0 (Array.length plan);
    let c = eval plan in
    incr trials;
    if c < !best_cost then begin
      best_cost := c;
      best_plan := Array.copy plan;
      improved !best_plan c
    end
  done;
  Obs.Counter.add c_trials !trials;
  (!best_plan, !best_cost, !trials)

let r1 ?stop ?on_improve rng objective problem ~trials =
  r1_eval ?stop ?on_improve rng
    ~eval:(fun plan -> Cost.eval objective problem plan)
    problem ~trials

let r2 ?stop ?on_improve ?now rng objective problem ~time_limit =
  r2_eval ?stop ?on_improve ?now rng
    ~eval:(fun plan -> Cost.eval objective problem plan)
    problem ~time_limit

let best_of rng objective problem k = fst (r1 rng objective problem ~trials:k)

let best_of_eval rng ~eval problem k = fst (r1_eval rng ~eval problem ~trials:k)

let r2_parallel ?(domains = 4) ?(stop = no_stop) ?on_improve rng objective problem
    ~time_limit =
  if domains <= 0 then invalid_arg "Random_search.r2_parallel: need at least one domain";
  if time_limit <= 0.0 then invalid_arg "Random_search.r2_parallel: need a positive time limit";
  Obs.Span.with_ "random_search.r2_parallel" @@ fun () ->
  (* One incumbent stream and one improvement callback for the whole
     gang: per-domain improvements are merged under a mutex so the caller
     only ever sees the strictly decreasing cross-domain prefix minima
     (each with a private copy of the plan). [stop] is polled from every
     domain and must therefore be thread-safe — the portfolio's
     atomic-flag stop is; so is any pure deadline check. *)
  let obs_stream = Obs.Incumbent.stream "random.parallel" in
  let merge_mutex = Mutex.create () in
  let merged_best = ref infinity in
  let publish plan cost =
    ignore (Obs.Incumbent.observe obs_stream cost : bool);
    match on_improve with
    | None -> ()
    | Some f ->
        let copy = Array.copy plan in
        Mutex.protect merge_mutex (fun () ->
            if cost < !merged_best then begin
              merged_best := cost;
              f copy cost
            end)
  in
  (* Independent streams per domain; evaluation is pure, so workers share
     nothing but the immutable problem and the merge state above. Trial
     counts are merged atomically inside [r2_eval]'s counter flush (the
     [random_search.trials] counter is a process-global atomic) and
     summed for the return value below. The gang never outnumbers the
     cores, and the calling domain runs the first stream itself: a domain
     more than the cores only time-slices, and every minor collection
     waits for all of them. *)
  let domains = min domains (Domain.recommended_domain_count ()) in
  let seeds = Array.init domains (fun _ -> Prng.split rng) in
  let run stream =
    r2_eval ~stop ~on_improve:publish stream
      ~eval:(fun plan -> Cost.eval objective problem plan)
      problem ~time_limit
  in
  let helpers =
    Array.map (fun stream -> Domain.spawn (fun () -> run stream)) (Array.sub seeds 1 (domains - 1))
  in
  let own =
    match run seeds.(0) with
    | r -> r
    | exception e ->
        Array.iter (fun h -> ignore (Domain.join h)) helpers;
        raise e
  in
  Array.fold_left
    (fun (best_plan, best_cost, total) (plan, cost, trials) ->
      if cost < best_cost then (plan, cost, total + trials)
      else (best_plan, best_cost, total + trials))
    own (Array.map Domain.join helpers)

(* ---------- R2 with local descent ---------- *)

(* Counts completed random restarts of the descent search. *)
let c_descents = Obs.Counter.make "random_search.descents"

let r2_descent ?(stop = no_stop) ?on_improve ?(now = Obs.Clock.now_s) rng objective
    problem ~time_limit =
  if time_limit <= 0.0 then
    invalid_arg "Random_search.r2_descent: need a positive time limit";
  Obs.Span.with_ "random_search.r2_descent" @@ fun () ->
  let obs_stream = Obs.Incumbent.stream "random.descent" in
  let improved plan cost =
    ignore (Obs.Incumbent.observe obs_stream cost : bool);
    match on_improve with Some f -> f plan cost | None -> ()
  in
  let n = Types.node_count problem and m = Types.instance_count problem in
  let deadline = now () +. time_limit in
  let out_of_budget () = stop () || now () >= deadline in
  let init = Types.random_plan rng problem in
  let kernel = Delta_cost.create objective problem init in
  let best_plan = ref (Delta_cost.plan kernel) in
  let best_cost = ref (Delta_cost.cost kernel) in
  improved !best_plan !best_cost;
  let restarts = ref 0 in
  (* First-improvement descent over the full (node, target) neighborhood,
     repeated until a complete pass finds nothing better (a local optimum
     under swap/relocate moves) or the budget fires. Each proposal is
     O(deg) through the kernel, so a pass over the n·m neighborhood costs
     about what two full evaluations used to. *)
  let descend () =
    let cur = ref (Delta_cost.cost kernel) in
    let improved_pass = ref true in
    while !improved_pass && not (out_of_budget ()) do
      improved_pass := false;
      let node = ref 0 in
      while !node < n && not (out_of_budget ()) do
        for target = 0 to m - 1 do
          if target <> Delta_cost.instance_of kernel !node then begin
            let candidate = Delta_cost.propose_move kernel ~node:!node ~target in
            if candidate < !cur then begin
              Delta_cost.commit kernel;
              cur := candidate;
              improved_pass := true;
              if candidate < !best_cost then begin
                best_cost := candidate;
                Array.blit (Delta_cost.current kernel) 0 !best_plan 0 n;
                improved (Delta_cost.current kernel) candidate
              end
            end
            else Delta_cost.abort kernel
          end
        done;
        incr node
      done
    done
  in
  descend ();
  incr restarts;
  while not (out_of_budget ()) do
    Delta_cost.reset kernel (Types.random_plan rng problem);
    let start_cost = Delta_cost.cost kernel in
    if start_cost < !best_cost then begin
      best_cost := start_cost;
      best_plan := Delta_cost.plan kernel;
      improved (Delta_cost.current kernel) start_cost
    end;
    descend ();
    incr restarts
  done;
  Delta_cost.flush_counters kernel;
  Obs.Counter.add c_descents !restarts;
  Obs.Counter.add c_trials !restarts;
  (!best_plan, !best_cost, !restarts)
