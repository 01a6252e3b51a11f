type outcome =
  | Mip_optimal of float * float array
  | Mip_feasible of float * float array
  | Mip_infeasible
  | Mip_unbounded

type stats = {
  nodes_explored : int;
  nodes_pruned : int;
  elapsed_seconds : float;
  proven_optimal : bool;
}

let c_nodes = Obs.Counter.make "lp.mip.nodes_explored"
let c_pruned = Obs.Counter.make "lp.mip.nodes_pruned"
let c_incumbents = Obs.Counter.make "lp.mip.incumbents"

let int_tol = 1e-6

(* Minimal binary min-heap keyed on the LP bound. *)
module Heap = struct
  type 'a t = { mutable data : (float * 'a) array; mutable size : int }

  let create dummy = { data = Array.make 16 (0.0, dummy); size = 0 }

  let swap h i j =
    let tmp = h.data.(i) in
    h.data.(i) <- h.data.(j);
    h.data.(j) <- tmp

  let push h key v =
    if h.size = Array.length h.data then begin
      let bigger = Array.make (2 * h.size) h.data.(0) in
      Array.blit h.data 0 bigger 0 h.size;
      h.data <- bigger
    end;
    h.data.(h.size) <- (key, v);
    let i = ref h.size in
    h.size <- h.size + 1;
    while !i > 0 && fst h.data.((!i - 1) / 2) > fst h.data.(!i) do
      swap h !i ((!i - 1) / 2);
      i := (!i - 1) / 2
    done

  let pop h =
    if h.size = 0 then None
    else begin
      let top = h.data.(0) in
      h.size <- h.size - 1;
      h.data.(0) <- h.data.(h.size);
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
        let smallest = ref !i in
        if l < h.size && fst h.data.(l) < fst h.data.(!smallest) then smallest := l;
        if r < h.size && fst h.data.(r) < fst h.data.(!smallest) then smallest := r;
        if !smallest <> !i then begin
          swap h !i !smallest;
          i := !smallest
        end
        else continue := false
      done;
      Some top
    end
end

let fractionality x =
  let f = x -. Float.round x in
  Float.abs f

type strategy = Best_first | Depth_first

module type RELAXATION = sig
  val solve_relaxation_basis :
    ?should_stop:(unit -> bool) ->
    ?extra:(Model.var * Simplex.relation * float) list ->
    ?warm_basis:int array ->
    Model.t ->
    Simplex.status * int array
end

module Make (R : RELAXATION) = struct
  let solve ?time_limit ?node_limit ?should_stop ?(strategy = Depth_first) ?on_incumbent
      ?initial_incumbent model =
    Obs.Span.with_ "lp.mip.solve" @@ fun () ->
    let start = Obs.Clock.now_s () in
    let elapsed () = Obs.Clock.now_s () -. start in
    let over_time () =
      (match should_stop with Some f -> f () | None -> false)
      || match time_limit with Some l -> elapsed () > l | None -> false
    in
    let int_vars = Array.of_list (Model.integer_vars model) in
    let incumbent = ref (match initial_incumbent with
      | Some (obj, sol) -> Some (obj, Array.copy sol)
      | None -> None)
    in
    let nodes = ref 0 in
    let pruned = ref 0 in
    let hit_limit = ref false in
    (* Open nodes live either in a best-first heap or a depth-first stack. A
       node is the list of branching rows accumulated from the root plus its
       parent's LP bound and optimal basis, so the child LP restarts from it
       (dual simplex repair) instead of from scratch. Depth-first dives toward
       integer-feasible leaves — essential when the LP relaxation is weak
       (bounds barely discriminate, so best-first degenerates into
       breadth-first and rarely finds incumbents); best-first minimizes nodes
       when bounds are strong. *)
    let heap = Heap.create ([], [||]) in
    let stack = ref [] in
    let push bound branches basis =
      match strategy with
      | Best_first -> Heap.push heap bound (branches, basis)
      | Depth_first -> stack := (bound, (branches, basis)) :: !stack
    in
    let pop () =
      match strategy with
      | Best_first -> Heap.pop heap
      | Depth_first -> (
          match !stack with
          | [] -> None
          | top :: rest ->
              stack := rest;
              Some top)
    in
    (* An LP abandoned mid-solve by [over_time] carries no bound, so treat it
       exactly like a hit limit: stop branching, keep the incumbent. Models
       past the kernel's row cap abort the same way: the caller-provided
       seed is the best this solver can do. *)
    let root_status, root_basis =
      try R.solve_relaxation_basis ~should_stop:over_time model
      with Simplex.Aborted ->
        hit_limit := true;
        (Simplex.Infeasible, [||])
    in
    (match root_status with
    | Simplex.Infeasible | Simplex.Unbounded -> ()
    | Simplex.Optimal (bound, _) -> push bound [] root_basis);
    let unbounded = root_status = Simplex.Unbounded in
    let best_obj () = match !incumbent with Some (o, _) -> o | None -> infinity in
    let record_incumbent obj sol =
      if obj < best_obj () -. 1e-9 then begin
        incumbent := Some (obj, Array.copy sol);
        Obs.Counter.incr c_incumbents;
        match on_incumbent with
        | Some f -> f ~obj ~solution:sol ~elapsed:(elapsed ())
        | None -> ()
      end
    in
    let continue = ref (not unbounded) in
    while !continue do
      if over_time () then begin
        hit_limit := true;
        continue := false
      end
      else
        match node_limit with
        | Some l when !nodes >= l ->
            hit_limit := true;
            continue := false
        | _ -> (
            match pop () with
            | None -> continue := false
            | Some (bound, (branches, parent_basis)) ->
                if bound >= best_obj () -. 1e-9 then begin
                  (* Bound-dominated. Under best-first ordering every
                     remaining node is dominated too; under depth-first only
                     this node can be skipped. *)
                  incr pruned;
                  if strategy = Best_first then continue := false
                end
                else begin
                  incr nodes;
                  match
                    try
                      R.solve_relaxation_basis ~should_stop:over_time ~extra:branches
                        ~warm_basis:parent_basis model
                    with Simplex.Aborted ->
                      hit_limit := true;
                      continue := false;
                      (Simplex.Infeasible, [||])
                  with
                  | Simplex.Infeasible, _ -> ()
                  | Simplex.Unbounded, _ ->
                      (* Cannot happen if the root was bounded, but guard. *)
                      ()
                  | Simplex.Optimal (obj, sol), node_basis ->
                      if obj < best_obj () -. 1e-9 then begin
                        (* Most fractional integer variable. *)
                        let branch_var = ref None and worst = ref int_tol in
                        Array.iter
                          (fun v ->
                            let f = fractionality (Model.value sol v) in
                            if f > !worst then begin
                              worst := f;
                              branch_var := Some v
                            end)
                          int_vars;
                        match !branch_var with
                        | None -> record_incumbent obj sol
                        | Some v ->
                          begin
                          let x = Model.value sol v in
                          let lo = Float.floor x and hi = Float.ceil x in
                          (* Push the branch matching the LP rounding last so
                             depth-first explores it first (the stack pops in
                             reverse push order). Children inherit this node's
                             basis: the branch row extends it block-
                             triangularly, so the kernel re-enters at the
                             parent optimum. *)
                          if x -. lo >= 0.5 then begin
                            push obj ((v, Simplex.Le, lo) :: branches) node_basis;
                            push obj ((v, Simplex.Ge, hi) :: branches) node_basis
                          end
                          else begin
                            push obj ((v, Simplex.Ge, hi) :: branches) node_basis;
                            push obj ((v, Simplex.Le, lo) :: branches) node_basis
                          end
                        end
                      end
                      else
                        (* The LP bound already meets the incumbent: this
                           subtree cannot contain a strict improvement. *)
                        incr pruned
                end)
    done;
    let stats =
      {
        nodes_explored = !nodes;
        nodes_pruned = !pruned;
        elapsed_seconds = elapsed ();
        proven_optimal = not !hit_limit;
      }
    in
    Obs.Counter.add c_nodes !nodes;
    Obs.Counter.add c_pruned !pruned;
    if unbounded then (Mip_unbounded, stats)
    else
      match !incumbent with
      | Some (obj, sol) ->
          if !hit_limit then (Mip_feasible (obj, sol), stats) else (Mip_optimal (obj, sol), stats)
      | None -> (Mip_infeasible, stats)
end

include Make (Model)
