type t =
  | Greedy_g1
  | Greedy_g2
  | Random_r1 of int
  | Random_r2 of float
  | Descent of float
  | Anneal of Anneal.options
  | Cp of Cp_solver.options
  | Mip of Mip_solver.options
  | Portfolio of portfolio

and portfolio = { members : t list; time_limit : float; share_incumbent : bool }

let name = function
  | Greedy_g1 -> "G1"
  | Greedy_g2 -> "G2"
  | Random_r1 n -> Printf.sprintf "R1(%d)" n
  | Random_r2 s -> Printf.sprintf "R2(%.1fs)" s
  | Descent s -> Printf.sprintf "R2D(%.1fs)" s
  | Anneal _ -> "SA"
  | Cp _ -> "CP"
  | Mip _ -> "MIP"
  | Portfolio p -> Printf.sprintf "Portfolio(%d)" (List.length p.members)

(* Members race the portfolio's clock, not the budget they carry. *)
let member_name = function Random_r2 _ -> "R2" | Descent _ -> "R2D" | t -> name t

let rec supports t objective =
  match t with
  | Cp _ -> objective = Cost.Longest_link
  | Portfolio p -> List.for_all (fun m -> supports m objective) p.members
  | _ -> true

let time_limit = function
  | Greedy_g1 | Greedy_g2 | Random_r1 _ -> None
  | Random_r2 s | Descent s -> Some s
  | Anneal o -> Some o.Anneal.time_limit
  | Cp o -> Some o.Cp_solver.time_limit
  | Mip o -> Some o.Mip_solver.time_limit
  | Portfolio p -> Some p.time_limit

let uses_init = function Cp _ | Anneal _ -> true | _ -> false

(* A proof by a member that ran on exact (unclustered) costs is a proof
   for the true instance, and cancels the rest of a portfolio. *)
let exact_costs = function
  | Cp o -> o.Cp_solver.clusters = None
  | Mip o -> o.Mip_solver.clusters = None
  | _ -> false

let portfolio ~objective ~domains ~time_limit =
  if domains < 1 then invalid_arg "Solver.portfolio: domains must be >= 1";
  let exact =
    match objective with
    | Cost.Longest_link -> Cp { Cp_solver.default_options with Cp_solver.clusters = None }
    | Cost.Longest_path ->
        Mip { Mip_solver.default_options with Mip_solver.clusters = None }
  in
  let anneal = Anneal Anneal.default_options in
  let base =
    [ exact; anneal; Descent time_limit; Random_r2 time_limit; Greedy_g2 ]
  in
  let padding =
    List.init (max 0 (domains - 5)) (fun i ->
        match i mod 3 with 0 -> anneal | 1 -> Descent time_limit | _ -> Random_r2 time_limit)
  in
  Portfolio
    {
      members = List.filteri (fun i _ -> i < domains) base @ padding;
      time_limit;
      share_incumbent = true;
    }

type stop_reason = Proven_optimal | Finished | Budget

type stats =
  | No_stats
  | Cp_stats of { iterations : int; nodes : int; failures : int; propagations : int }
  | Mip_stats of { nodes_explored : int; nodes_pruned : int }
  | Anneal_stats of { moves_tried : int; moves_accepted : int }
  | Random_stats of { trials : int }

type member = {
  member_name : string;
  member_cost : float;
  time_to_best : float;
  seconds : float;
  iterations : int;
  proved_optimal : bool;
}

type outcome = {
  plan : Types.plan;
  cost : float;
  trace : (float * float) list;
  stats : stats;
  members : member list;
  winner : int option;
  stop_reason : stop_reason;
}

let effort = function
  | No_stats -> 1
  | Cp_stats { iterations; _ } -> iterations
  | Mip_stats { nodes_explored; _ } -> nodes_explored
  | Anneal_stats { moves_tried; _ } -> moves_tried
  | Random_stats { trials } -> trials

let check_supports t objective =
  let leaves = match t with Portfolio p -> p.members | t -> [ t ] in
  match List.find_opt (fun m -> not (supports m objective)) leaves with
  | Some m ->
      invalid_arg
        (Printf.sprintf "Solver.run: %s does not support the %s objective" (name m)
           (Cost.objective_to_string objective))
  | None -> ()

let check t objective =
  (match t with
  | Portfolio p ->
      if p.members = [] then invalid_arg "Solver.run: a portfolio needs members";
      if List.exists (function Portfolio _ -> true | _ -> false) p.members then
        invalid_arg "Solver.run: a portfolio cannot be a portfolio member"
  | _ -> ());
  check_supports t objective

let c_publishes = Obs.Counter.make "portfolio.publishes"

let merged_trace events =
  (* Lexicographic (time, cost) order — same total order as polymorphic
     compare on float pairs, without the generic traversal. *)
  let sorted =
    List.sort
      (fun (t1, c1) (t2, c2) ->
        match Float.compare t1 t2 with 0 -> Float.compare c1 c2 | c -> c)
      events
  in
  let rec go best acc = function
    | [] -> List.rev acc
    | (t, c) :: tl -> if c < best then go c ((t, c) :: acc) tl else go best acc tl
  in
  go infinity [] sorted

let rec run ?stop ?on_improve ?peek ?init ?clustering ?ranks ?time_limit t rng objective
    problem =
  check t objective;
  let budget own = match time_limit with Some s -> Float.max 0.001 s | None -> own in
  (* Solvers that keep no trace of their own get one from their
     improvement callback, against this start time. *)
  let started = Obs.Clock.now_s () in
  let trace = ref [] in
  let recorded plan cost =
    trace := (Obs.Clock.now_s () -. started, cost) :: !trace;
    Option.iter (fun f -> f plan cost) on_improve
  in
  let finish ?(trace = List.rev !trace) stats stop_reason plan cost =
    { plan; cost; trace; stats; members = []; winner = None; stop_reason }
  in
  let greedy plan =
    let cost = Cost.eval objective problem plan in
    Option.iter (fun f -> f plan cost) on_improve;
    finish ~trace:[] No_stats Finished plan cost
  in
  let proof proven = if proven then Proven_optimal else Budget in
  match t with
  | Greedy_g1 -> greedy (Greedy.g1 problem)
  | Greedy_g2 -> greedy (Greedy.g2 problem)
  | Random_r1 trials ->
      let stopped = ref false in
      let stop =
        Option.map
          (fun f () ->
            let s = f () in
            if s then stopped := true;
            s)
          stop
      in
      let plan, cost =
        Random_search.r1 ?stop ~on_improve:recorded rng objective problem ~trials
      in
      finish (Random_stats { trials }) (if !stopped then Budget else Finished) plan cost
  | Random_r2 s ->
      let plan, cost, trials =
        Random_search.r2 ?stop ~on_improve:recorded rng objective problem
          ~time_limit:(budget s)
      in
      finish (Random_stats { trials }) Budget plan cost
  | Descent s ->
      let plan, cost, restarts =
        Random_search.r2_descent ?stop ~on_improve:recorded rng objective problem
          ~time_limit:(budget s)
      in
      finish (Random_stats { trials = restarts }) Budget plan cost
  | Anneal o ->
      let options = { o with Anneal.time_limit = budget o.Anneal.time_limit } in
      let ranks =
        match objective with
        | Cost.Longest_link -> Option.map (fun f -> f ()) ranks
        | Cost.Longest_path -> None
      in
      let r =
        Anneal.solve_objective ~options ?stop ?init ?ranks ~on_improve:recorded rng
          objective problem
      in
      let finished =
        match o.Anneal.max_moves with Some m -> r.Anneal.moves_tried >= m | None -> false
      in
      finish
        (Anneal_stats
           { moves_tried = r.Anneal.moves_tried; moves_accepted = r.Anneal.moves_accepted })
        (if finished then Finished else Budget)
        r.Anneal.plan r.Anneal.cost
  | Cp o ->
      let options = { o with Cp_solver.time_limit = budget o.Cp_solver.time_limit } in
      let r =
        Cp_solver.solve ~options
          ?clustering:(Option.map (fun f -> f ()) clustering)
          ?warm_start:init ?stop ?peek ?on_incumbent:on_improve rng problem
      in
      finish ~trace:r.Cp_solver.trace
        (Cp_stats
           {
             iterations = r.Cp_solver.iterations;
             nodes = r.Cp_solver.nodes;
             failures = r.Cp_solver.failures;
             propagations = r.Cp_solver.propagations;
           })
        (proof r.Cp_solver.proven_optimal) r.Cp_solver.plan r.Cp_solver.cost
  | Mip o ->
      let options = { o with Mip_solver.time_limit = budget o.Mip_solver.time_limit } in
      let solve =
        match objective with
        | Cost.Longest_link -> Mip_solver.solve_longest_link
        | Cost.Longest_path -> Mip_solver.solve_longest_path
      in
      let r = solve ~options ?stop ?on_incumbent:on_improve rng problem in
      finish ~trace:r.Mip_solver.trace
        (Mip_stats
           {
             nodes_explored = r.Mip_solver.nodes_explored;
             nodes_pruned = r.Mip_solver.nodes_pruned;
           })
        (proof r.Mip_solver.proven_optimal) r.Mip_solver.plan r.Mip_solver.cost
  | Portfolio p ->
      let time_limit = budget p.time_limit in
      if time_limit <= 0.0 then invalid_arg "Solver.run: time_limit must be positive";
      race ?stop ?on_improve p ~time_limit rng objective problem

and race ?stop ?on_improve p ~time_limit rng objective problem =
  Obs.Resource.with_ "portfolio.solve" @@ fun () ->
  let obs_stream = Obs.Incumbent.stream "portfolio" in
  let start = Obs.Clock.now_s () in
  let deadline = start +. time_limit in
  (* Shared state. [best] holds a private copy of the cheapest plan any
     member has published — consumed only through [peek] by the CP
     member; the stored arrays are never mutated after publication.
     [events] accumulates every member-local improvement for the merged
     anytime trace. *)
  let mutex = Mutex.create () in
  let best : (Types.plan * float) option ref = ref None in
  let events : (float * float) list ref = ref [] in
  (* Set only by a proof on exact costs, so after the joins it also says
     whether the portfolio proved optimality. *)
  let cancelled = Atomic.make false in
  let stop () =
    Atomic.get cancelled
    || (match stop with Some f -> f () | None -> false)
    || Obs.Clock.now_s () > deadline
  in
  let peek =
    if p.share_incumbent then
      Some (fun () -> Mutex.protect mutex (fun () -> Option.map fst !best))
    else None
  in
  (* One PRNG split per member, drawn in member order before any domain
     spawns: member streams never depend on scheduling. *)
  let rngs = Array.init (List.length p.members) (fun _ -> Prng.split rng) in
  let run_member member rng =
    (* Member-local telemetry; only this domain touches these refs. *)
    let own_best = ref infinity and own_tt = ref 0.0 in
    let publish plan cost =
      if cost < !own_best then begin
        own_best := cost;
        own_tt := Obs.Clock.now_s () -. start;
        Obs.Counter.incr c_publishes;
        ignore (Obs.Incumbent.observe obs_stream cost : bool);
        let copy = Array.copy plan in
        Mutex.protect mutex (fun () ->
            events := (!own_tt, cost) :: !events;
            match !best with
            | Some (_, c) when c <= cost -> ()
            | _ ->
                best := Some (copy, cost);
                Option.iter (fun f -> f copy cost) on_improve)
      end
    in
    let member_start = Obs.Clock.now_s () in
    let o =
      run ~stop ~on_improve:publish ?peek ~time_limit:(deadline -. Obs.Clock.now_s ()) member
        rng objective problem
    in
    publish o.plan o.cost;
    if o.stop_reason = Proven_optimal && exact_costs member then Atomic.set cancelled true;
    ( o,
      {
        member_name = member_name member;
        member_cost = o.cost;
        time_to_best = !own_tt;
        seconds = Obs.Clock.now_s () -. member_start;
        iterations = effort o.stats;
        proved_optimal = o.stop_reason = Proven_optimal;
      } )
  in
  let domains =
    List.mapi
      (fun i member ->
        Domain.spawn (fun () ->
            Obs.Span.with_ ("portfolio.member:" ^ member_name member) @@ fun () ->
            run_member member rngs.(i)))
      p.members
  in
  let outcomes, members = List.split (List.map Domain.join domains) in
  List.iter (fun o -> Types.validate problem o.plan) outcomes;
  (* Deterministic winner: cheapest final cost, ties to the lowest member
     index — independent of how the domains interleaved. The final plans
     come from each solver's own return value, not the shared incumbent. *)
  let winner, won =
    List.fold_left
      (fun (wi, w) (i, o) -> if o.cost < w.cost then (i, o) else (wi, w))
      (0, List.hd outcomes)
      (List.mapi (fun i o -> (i, o)) outcomes)
  in
  let stop_reason =
    if Atomic.get cancelled then Proven_optimal
    else if List.exists (fun o -> o.stop_reason = Budget) outcomes then Budget
    else Finished
  in
  {
    plan = won.plan;
    cost = won.cost;
    trace = merged_trace !events;
    stats = No_stats;
    members;
    winner = Some winner;
    stop_reason;
  }
