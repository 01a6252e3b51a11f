type result =
  | Sat of int array
  | Unsat
  | Timeout

type stats = {
  nodes : int;
  failures : int;
  propagations : int;
  elapsed : float;
}

exception Found of int array
exception Out_of_budget

(* Flushed once per solve from the local refs the search already keeps —
   the node loop itself stays free of atomic traffic. *)
let c_nodes = Obs.Counter.make "cp.search.nodes"
let c_failures = Obs.Counter.make "cp.search.failures"
let c_propagations = Obs.Counter.make "cp.search.propagations"

(* Per-node propagation latency; recorded only under tracing so the
   untraced node loop keeps zero clock reads. *)
let h_node = Obs.Histogram.make "cp.node_ns"

(* Refine caller-declared interchangeability classes by the root domains:
   two values may only share a class if every variable's initial domain
   treats them identically. The search-level soundness argument for
   symmetric-value dedup needs the class swap to be an automorphism of the
   *posted* problem, and unary root restrictions (degree labeling) are part
   of it — exact column comparison makes the guarantee self-contained
   instead of trusting the caller's restrictions to be symmetric. *)
let refine_classes csp classes =
  let nvalues = Csp.nvalues csp in
  if Array.length classes <> nvalues then
    invalid_arg "Search.solve: value_classes length must equal nvalues";
  let column v =
    String.init (Csp.nvars csp) (fun x ->
        if Domain.mem (Csp.domain csp x) v then '1' else '0')
  in
  let groups : (int * string, int list ref) Hashtbl.t = Hashtbl.create 16 in
  for v = nvalues - 1 downto 0 do
    if classes.(v) >= 0 then begin
      let key = (classes.(v), column v) in
      match Hashtbl.find_opt groups key with
      | Some members -> members := v :: !members
      | None -> Hashtbl.add groups key (ref [ v ])
    end
  done;
  let refined = Array.make nvalues (-1) in
  let next = ref 0 in
  Hashtbl.iter
    (fun _ members ->
      match !members with
      | [] | [ _ ] -> () (* singleton classes cannot save any branching *)
      | vs ->
          List.iter (fun v -> refined.(v) <- !next) vs;
          incr next)
    groups;
  (refined, !next)

let solve ?time_limit ?node_limit ?should_stop ?value_classes
    ?(value_order = fun ~var:_ values -> values) csp =
  Obs.Span.with_ "cp.search" @@ fun () ->
  let start = Obs.Clock.now_s () in
  let timed = Obs.Sink.enabled () in
  let nodes = ref 0 and failures = ref 0 and propagations = ref 0 in
  let deadline = Option.map (fun l -> start +. l) time_limit in
  let check_budget () =
    (match node_limit with Some l when !nodes >= l -> raise Out_of_budget | _ -> ());
    (match should_stop with Some f when f () -> raise Out_of_budget | _ -> ());
    (* The time check is cheap enough to run at every node. *)
    match deadline with
    | Some d when Obs.Clock.now_s () > d -> raise Out_of_budget
    | _ -> ()
  in
  let initial = Csp.save csp in
  (* Symmetric-value dedup: at a branch node, values of the same
     (root-refined) interchangeability class are pairwise swappable by a
     problem automorphism fixing the path's assignments, so trying more
     than one candidate per class only re-proves the same subtree. Keeping
     the smallest candidate of each class is therefore sound and
     complete. [class_mark] is stamped per branch node to dedup without
     allocation. *)
  let classes, n_classes =
    match value_classes with
    | None -> (Array.make 0 0, 0)
    | Some c -> refine_classes csp c
  in
  let class_mark = Array.make (max n_classes 1) (-1) in
  let node_stamp = ref 0 in
  let dedup_values values =
    if n_classes = 0 then values
    else begin
      incr node_stamp;
      List.filter
        (fun v ->
          let c = classes.(v) in
          c < 0
          ||
          if class_mark.(c) = !node_stamp then false
          else begin
            class_mark.(c) <- !node_stamp;
            true
          end)
        values
    end
  in
  (* MRV over a sparse set of still-unassigned variables: scanning every
     variable at every node is O(n) even deep in the tree where most are
     fixed. Variables found assigned are swapped past the [n_active]
     watermark; restoring the watermark un-removes them on backtrack
     (assignment is monotone along a dive, so everything past the
     watermark really was assigned at this depth). Tie-breaks match the
     historical full scan exactly: smallest domain, then smallest index. *)
  let cand = Array.init (Csp.nvars csp) (fun i -> i) in
  let n_active = ref (Csp.nvars csp) in
  let select_variable () =
    let best = ref (-1) and best_size = ref max_int in
    let i = ref 0 in
    while !i < !n_active do
      let v = cand.(!i) in
      let s = Domain.size (Csp.domain csp v) in
      if s <= 1 then begin
        decr n_active;
        cand.(!i) <- cand.(!n_active);
        cand.(!n_active) <- v
      end
      else begin
        if s < !best_size || (s = !best_size && v < !best) then begin
          best := v;
          best_size := s
        end;
        incr i
      end
    done;
    !best
  in
  let rec search depth =
    check_budget ();
    incr propagations;
    let t0 = if timed then Obs.Clock.now_ns () else 0L in
    let outcome = Csp.propagate csp in
    if timed then Obs.Histogram.record_ns h_node (Int64.sub (Obs.Clock.now_ns ()) t0);
    match outcome with
    | Csp.Failure -> incr failures
    | Csp.Progress | Csp.Fixpoint -> (
        match Csp.assignment csp with
        | Some a -> raise (Found (Array.copy a))
        | None ->
            let var = select_variable () in
            if var = -1 then
              (* No branching variable but not a full assignment: some
                 domain is empty (propagate would have failed) — defensive. *)
              incr failures
            else begin
              let values =
                value_order ~var (dedup_values (Domain.to_list (Csp.domain csp var)))
              in
              Csp.save_level csp depth;
              let saved_active = !n_active in
              List.iter
                (fun v ->
                  incr nodes;
                  Domain.fix (Csp.domain csp var) v;
                  search (depth + 1);
                  Csp.restore_level csp depth;
                  n_active := saved_active)
                values
            end)
  in
  let finish outcome =
    Csp.restore csp initial;
    Obs.Counter.add c_nodes !nodes;
    Obs.Counter.add c_failures !failures;
    Obs.Counter.add c_propagations !propagations;
    ( outcome,
      {
        nodes = !nodes;
        failures = !failures;
        propagations = !propagations;
        elapsed = Obs.Clock.now_s () -. start;
      } )
  in
  match search 0 with
  | () -> finish Unsat
  | exception Found a -> finish (Sat a)
  | exception Out_of_budget -> finish Timeout
