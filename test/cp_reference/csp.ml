open Cp

type propagation = Cp.Csp.propagation = Progress | Fixpoint | Failure

type constr =
  | Alldifferent
  | Forbidden of { x : int; y : int; bad : Domain.t array; bad_rev : Domain.t array }

type t = {
  nvars : int;
  nvalues : int;
  domains : Domain.t array;
  mutable constraints : constr list; (* reversed insertion order *)
  (* Incremental alldifferent state: the last maximum matching found, kept
     mutually consistent ([pair_left.(x) = v] iff [pair_right.(v) = x]).
     Never trusted blindly — each propagation validates it against the live
     domains and re-augments only the variables that lost their match, so
     staleness after backtracking or {!reset} is harmless. *)
  pair_left : int array;
  pair_right : int array;
  seen : int array; (* Kuhn DFS visit stamps, one slot per value *)
  mutable stamp : int;
}

let create ~nvars ~nvalues =
  if nvars <= 0 then invalid_arg "Cp_reference.Csp.create: need at least one variable";
  if nvars > nvalues then invalid_arg "Cp_reference.Csp.create: more variables than values";
  {
    nvars;
    nvalues;
    domains = Array.init nvars (fun _ -> Domain.full nvalues);
    constraints = [];
    pair_left = Array.make nvars (-1);
    pair_right = Array.make nvalues (-1);
    seen = Array.make nvalues (-1);
    stamp = 0;
  }

let domain t v = t.domains.(v)

let restrict t ~var ~allowed = ignore (Domain.keep_only t.domains.(var) allowed)

let add_alldifferent t = t.constraints <- Alldifferent :: t.constraints

let transpose nvalues bad =
  let rev = Array.init nvalues (fun _ -> Domain.empty nvalues) in
  Array.iteri (fun j row -> Domain.iter (fun j' -> Domain.add rev.(j') j) row) bad;
  rev

let add_forbidden_pairs t ~x ~y ~bad =
  if x < 0 || x >= t.nvars || y < 0 || y >= t.nvars then
    invalid_arg "Cp_reference.Csp.add_forbidden_pairs: variable out of range";
  if Array.length bad <> t.nvalues then
    invalid_arg "Cp_reference.Csp.add_forbidden_pairs: bad matrix has wrong width";
  t.constraints <- Forbidden { x; y; bad; bad_rev = transpose t.nvalues bad } :: t.constraints

(* ---- Propagators ---- *)

(* Binary negative-table propagation: value j stays in D(x) iff some value
   of D(y) is compatible, i.e. D(y) ⊄ bad(j). When D(y) is a singleton {v},
   pruning D(x) reduces to removing bad_rev(v) — the x-values forbidden
   with y = v — in one bitset operation. *)
let propagate_forbidden t ~x ~y ~bad ~bad_rev =
  let dx = t.domains.(x) and dy = t.domains.(y) in
  let changed = ref false in
  (* [loop_matrix] maps a candidate value of [d] to the set of [other]
     values it conflicts with; [singleton_matrix] maps a fixed value of
     [other] to the set of [d] values it rules out. *)
  let prune d other ~loop_matrix ~singleton_matrix =
    if Domain.is_singleton other then begin
      let v = Domain.min_value other in
      if Domain.subtract d singleton_matrix.(v) then changed := true
    end
    else
      Domain.iter
        (fun j ->
          if not (Domain.intersects_complement other loop_matrix.(j)) then
            if Domain.remove d j then changed := true)
        d
  in
  prune dx dy ~loop_matrix:bad ~singleton_matrix:bad_rev;
  prune dy dx ~loop_matrix:bad_rev ~singleton_matrix:bad;
  if Domain.is_empty dx || Domain.is_empty dy then Failure
  else if !changed then Progress
  else Fixpoint

(* Kuhn augmenting-path DFS from variable [x] over the live domains.
   Values are visited in ascending order (Domain.iter), so given identical
   starting state the matching found is deterministic. *)
let rec kuhn_augment t x =
  try
    Domain.iter
      (fun v ->
        if t.seen.(v) <> t.stamp then begin
          t.seen.(v) <- t.stamp;
          let owner = t.pair_right.(v) in
          if owner = -1 || kuhn_augment t owner then begin
            t.pair_left.(x) <- v;
            t.pair_right.(v) <- x;
            raise Exit
          end
        end)
      t.domains.(x);
    false
  with Exit -> true

(* Restore the cached matching to a maximum matching of the current
   variable/domain bipartite graph: drop pairs whose value left its
   variable's domain, then re-augment only the unmatched variables. Any
   maximum matching yields the same Régin prunings (the filtered edge set
   is matching-invariant), so the incremental matching changes cost, not
   results. Returns false when no perfect matching exists. *)
let revalidate_matching t =
  for x = 0 to t.nvars - 1 do
    let v = t.pair_left.(x) in
    if v <> -1 && not (Domain.mem t.domains.(x) v) then begin
      t.pair_left.(x) <- -1;
      t.pair_right.(v) <- -1
    end
  done;
  let ok = ref true in
  for x = 0 to t.nvars - 1 do
    if !ok && t.pair_left.(x) = -1 then begin
      t.stamp <- t.stamp + 1;
      if not (kuhn_augment t x) then ok := false
    end
  done;
  !ok

(* Régin's alldifferent filtering: maintain a maximum variable-to-value
   matching; fail if not all variables are matched; then remove every edge
   (x, v) that lies in no maximum matching. Edge classification uses the
   standard residual orientation — matched edges var→value, unmatched
   value→var — under which an unmatched edge survives iff its endpoints
   share an SCC or its value vertex is reachable from a free value. *)
let propagate_alldifferent t =
  let n = t.nvars and m = t.nvalues in
  if not (revalidate_matching t) then Failure
  else begin
    let pair_left = t.pair_left in
    let pair_right = t.pair_right in
    (* Residual digraph over n variable vertices then m value vertices. *)
    let total = n + m in
    let succ v =
      if v < n then [| n + pair_left.(v) |]
      else begin
        let value = v - n in
        (* Arcs value→var for every unmatched edge (var, value). *)
        let owners = ref [] in
        for x = n - 1 downto 0 do
          if pair_left.(x) <> value && Domain.mem t.domains.(x) value then
            owners := x :: !owners
        done;
        Array.of_list !owners
      end
    in
    (* Precompute successors once; Scc and BFS both need them. *)
    let succs = Array.init total succ in
    let comp = Graphs.Scc.tarjan ~n:total ~succ:(fun v -> succs.(v)) in
    (* Reachability from free value vertices. *)
    let reachable = Array.make total false in
    let queue = Queue.create () in
    for value = 0 to m - 1 do
      if pair_right.(value) = -1 then begin
        reachable.(n + value) <- true;
        Queue.add (n + value) queue
      end
    done;
    while not (Queue.is_empty queue) do
      let v = Queue.pop queue in
      Array.iter
        (fun w ->
          if not reachable.(w) then begin
            reachable.(w) <- true;
            Queue.add w queue
          end)
        succs.(v)
    done;
    let changed = ref false in
    for x = 0 to n - 1 do
      Domain.iter
        (fun value ->
          if
            pair_left.(x) <> value
            && comp.(x) <> comp.(n + value)
            && not reachable.(n + value)
          then if Domain.remove t.domains.(x) value then changed := true)
        t.domains.(x)
    done;
    if Array.exists Domain.is_empty t.domains then Failure
    else if !changed then Progress
    else Fixpoint
  end

let propagate_one t = function
  | Alldifferent -> propagate_alldifferent t
  | Forbidden { x; y; bad; bad_rev } -> propagate_forbidden t ~x ~y ~bad ~bad_rev

let propagate t =
  let rec loop made_progress =
    let progress = ref false in
    let failed = ref false in
    List.iter
      (fun c ->
        if not !failed then
          match propagate_one t c with
          | Failure -> failed := true
          | Progress -> progress := true
          | Fixpoint -> ())
      t.constraints;
    if !failed then Failure
    else if !progress then loop true
    else if made_progress then Progress
    else Fixpoint
  in
  loop false

let reset t =
  let full = Domain.full t.nvalues in
  Array.iter (fun d -> Domain.blit ~src:full ~dst:d) t.domains;
  t.constraints <-
    List.filter (function Alldifferent -> true | Forbidden _ -> false) t.constraints
(* The cached matching survives reset on purpose: a matching valid under
   the shrunken domains is still a matching under the refilled ones, so
   the next threshold iteration starts with zero augmenting work. *)

let save t = Array.map Domain.copy t.domains

let restore t snapshot =
  Array.iteri (fun i d -> Domain.blit ~src:d ~dst:t.domains.(i)) snapshot
