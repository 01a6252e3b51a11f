type options = {
  time_limit : float;
  initial_temperature : float;
  cooling : float;
  moves_per_temperature : int;
  restarts : int;
  max_moves : int option;
}

let default_options =
  {
    time_limit = 2.0;
    initial_temperature = 0.5;
    cooling = 0.999;
    moves_per_temperature = 50;
    restarts = 3;
    max_moves = None;
  }

type result = {
  plan : Types.plan;
  cost : float;
  moves_tried : int;
  moves_accepted : int;
}

(* Flushed once per solve from the refs the loop already keeps. *)
let c_tried = Obs.Counter.make "anneal.moves_tried"
let c_accepted = Obs.Counter.make "anneal.moves_accepted"
let g_acceptance = Obs.Gauge.make "anneal.acceptance_rate"

(* Per-move latency distribution. Recording is gated on the event sink so
   the untraced hot loop pays nothing (the fig_delta moves/sec gate runs
   with the sink off); under tracing it costs two clock reads per move. *)
let h_move = Obs.Histogram.make "anneal.move_ns"

(* One annealing run from a random start, driven through a {!Delta_cost}
   kernel: a proposed move costs O(deg) for the standard objectives (one
   full evaluation only for opaque costs) and is committed or aborted in
   place. The global best (shared across restarts) is updated in place so
   improvement callbacks see the true cross-restart incumbent timeline. *)
let[@cloudia.hot] run rng kernel (t : Types.problem) options ~deadline ~stop ~improved
    ~tried ~accepted ~budget_left ~best_plan ~best_cost =
  let n = Types.node_count t and m = Types.instance_count t in
  Delta_cost.reset kernel (Types.random_plan rng t);
  let cost = ref (Delta_cost.cost kernel) in
  if !cost < !best_cost then begin
    best_cost := !cost;
    best_plan := Delta_cost.plan kernel;
    improved (Delta_cost.current kernel) !cost
  end;
  let temperature = ref options.initial_temperature in
  let min_temperature = 1e-4 *. options.initial_temperature in
  let timed = Obs.Sink.enabled () in
  (* Hoisted out of the temperature loop: pass A003 keeps this function's
     loop bodies allocation-free. *)
  let moves = ref 0 in
  let proposed = Delta_cost.proposed kernel in
  while
    !temperature > min_temperature
    && !budget_left > 0
    && (not (stop ()))
    && Obs.Clock.now_s () < deadline
  do
    moves := options.moves_per_temperature;
    while !moves > 0 && !budget_left > 0 do
      decr moves;
      decr budget_left;
      incr tried;
      (* Propose: pick a node and a target instance; the kernel swaps or
         relocates depending on whether the target is occupied. *)
      let node = Prng.int rng n in
      let target = Prng.int rng m in
      if target <> Delta_cost.instance_of kernel node then begin
        let t0 = if timed then Obs.Clock.now_ns () else 0L in
        (* Neither the cost nor the acceptance draw comes back from a call
           as a float, which is boxed where the call is not inlined;
           [bits53] scaled by 2^-53 is [Prng.uniform], bit for bit. *)
        Delta_cost.propose kernel ~node ~target;
        let candidate = proposed.(0) in
        let delta = candidate -. !cost in
        let accept =
          delta <= 0.0
          || float_of_int (Prng.bits53 rng) *. 0x1p-53 < exp (-.delta /. !temperature)
        in
        if accept then begin
          Delta_cost.commit kernel;
          incr accepted;
          cost := candidate;
          if candidate < !best_cost then begin
            best_cost := candidate;
            Array.blit (Delta_cost.current kernel) 0 !best_plan 0 n;
            improved (Delta_cost.current kernel) candidate
          end
        end
        else Delta_cost.abort kernel;
        if timed then Obs.Histogram.record_ns h_move (Int64.sub (Obs.Clock.now_ns ()) t0)
      end
    done;
    temperature := !temperature *. options.cooling
  done

let solve_kernel ?(options = default_options) ?(stop = fun () -> false) ?init ?on_improve
    rng ~make (t : Types.problem) =
  if options.time_limit <= 0.0 then invalid_arg "Anneal.solve: need a positive time limit";
  if options.restarts <= 0 then invalid_arg "Anneal.solve: need at least one restart";
  (match options.max_moves with
  | Some m when m <= 0 -> invalid_arg "Anneal.solve: need a positive move budget"
  | _ -> ());
  Obs.Resource.with_ "anneal.solve" @@ fun () ->
  let obs_stream = Obs.Incumbent.stream "anneal" in
  let improved plan cost =
    ignore (Obs.Incumbent.observe obs_stream cost : bool);
    match on_improve with Some f -> f plan cost | None -> ()
  in
  let deadline = Obs.Clock.now_s () +. options.time_limit in
  let tried = ref 0 and accepted = ref 0 in
  let budget_left = ref (match options.max_moves with Some m -> m | None -> max_int) in
  (* A warm start becomes the cross-restart incumbent to beat; the
     restarts themselves still begin from fresh random plans, and with no
     [init] the draw order is exactly the historical one. *)
  let kernel : Delta_cost.t =
    make (match init with Some p -> Array.copy p | None -> Types.random_plan rng t)
  in
  let best_plan = ref (Delta_cost.plan kernel) in
  let best_cost = ref (Delta_cost.cost kernel) in
  improved !best_plan !best_cost;
  let remaining = ref options.restarts in
  while
    !remaining > 0 && !budget_left > 0 && (not (stop ())) && Obs.Clock.now_s () < deadline
  do
    decr remaining;
    run rng kernel t options ~deadline ~stop ~improved ~tried ~accepted ~budget_left
      ~best_plan ~best_cost
  done;
  Delta_cost.flush_counters kernel;
  Obs.Counter.add c_tried !tried;
  Obs.Counter.add c_accepted !accepted;
  if !tried > 0 then
    Obs.Gauge.set g_acceptance (float_of_int !accepted /. float_of_int !tried);
  { plan = !best_plan; cost = !best_cost; moves_tried = !tried; moves_accepted = !accepted }

let solve ?options ?stop ?init ?on_improve rng ~eval t =
  solve_kernel ?options ?stop ?init ?on_improve rng
    ~make:(fun p -> Delta_cost.create_eval ~eval t p)
    t

let solve_objective ?options ?stop ?init ?ranks ?on_improve rng objective t =
  solve_kernel ?options ?stop ?init ?on_improve rng
    ~make:(fun p -> Delta_cost.create ?ranks objective t p)
    t
