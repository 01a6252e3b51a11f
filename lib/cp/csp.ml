type propagation = Progress | Fixpoint | Failure

type t = {
  nvars : int;
  nvalues : int;
  domains : Domain.t array;
  mutable alldifferent : bool;
  (* Binary forbidden-pair constraints [0 .. nbin-1], one column per
     field: constraint [c] forbids [x = j ∧ y ∈ bad.(j)]; [bad_rev] is the
     transpose. Capacity grows by doubling. *)
  mutable nbin : int;
  mutable bin_x : int array;
  mutable bin_y : int array;
  mutable bin_bad : Domain.t array array;
  mutable bin_bad_rev : Domain.t array array;
  (* The last [bad] matrix posted and its transpose, keyed by physical
     equality: the paper's encoding posts one shared matrix per threshold
     on every edge, so one slot computes one transpose per iteration.
     Cleared by [reset] so a finished iteration's matrices die with it. *)
  mutable last_bad : Domain.t array;
  mutable last_bad_rev : Domain.t array;
  (* Watch lists in CSR form: the constraints on variable [v] are
     [watch.(watch_start.(v)) .. watch.(watch_start.(v+1) - 1)]. Rebuilt
     by [propagate] after constraints were added or dropped. *)
  watch_start : int array;
  mutable watch : int array;
  mutable watches_valid : bool;
  (* Domains at the last successful fixpoint. A variable whose domain
     differs from its entry here is dirty; the constraints on clean
     variables are still at fixpoint. [stale] means constraints were
     added or dropped since, so every constraint must run once. *)
  fixed : Domain.t array;
  mutable stale : bool;
  (* Constraint queue: a ring of capacity [nbin] with an in-queue flag per
     constraint, so each constraint is queued at most once. *)
  mutable queue : int array;
  mutable queued : Bytes.t;
  mutable q_head : int;
  mutable q_len : int;
  mutable regin_pending : bool;
  mutable progress : bool; (* a propagator narrowed a domain this call *)
  (* Incremental alldifferent state: the last maximum matching found, kept
     mutually consistent ([pair_left.(x) = v] iff [pair_right.(v) = x]).
     Never trusted blindly — each propagation validates it against the live
     domains and re-augments only the variables that lost their match, so
     staleness after backtracking or {!reset} is harmless. *)
  pair_left : int array;
  pair_right : int array;
  seen : int array; (* Kuhn DFS visit stamps, one slot per value *)
  mutable stamp : int;
  (* Régin's per-variable work buffers, reused by every call. *)
  reach : Bytes.t; (* reachable from a free value *)
  bfs : int array;
  index : int array; (* Tarjan DFS number, -1 = unvisited *)
  low : int array;
  comp : int array;
  on_stack : Bytes.t;
  scc_stack : int array;
  call_stack : int array;
  next_succ : int array; (* next candidate successor of a DFS vertex *)
  (* Snapshot slots for {!save_level}, allocated on first use and reused
     by every later search on this CSP. *)
  mutable levels : Domain.t array array;
}

let create ~nvars ~nvalues =
  if nvars <= 0 then invalid_arg "Csp.create: need at least one variable";
  if nvars > nvalues then invalid_arg "Csp.create: more variables than values";
  {
    nvars;
    nvalues;
    domains = Array.init nvars (fun _ -> Domain.full nvalues);
    alldifferent = false;
    nbin = 0;
    bin_x = [||];
    bin_y = [||];
    bin_bad = [||];
    bin_bad_rev = [||];
    last_bad = [||];
    last_bad_rev = [||];
    watch_start = Array.make (nvars + 1) 0;
    watch = [||];
    watches_valid = true;
    fixed = Array.init nvars (fun _ -> Domain.full nvalues);
    stale = true;
    queue = [||];
    queued = Bytes.empty;
    q_head = 0;
    q_len = 0;
    regin_pending = false;
    progress = false;
    pair_left = Array.make nvars (-1);
    pair_right = Array.make nvalues (-1);
    seen = Array.make nvalues (-1);
    stamp = 0;
    reach = Bytes.make nvars '\000';
    bfs = Array.make nvars 0;
    index = Array.make nvars (-1);
    low = Array.make nvars 0;
    comp = Array.make nvars 0;
    on_stack = Bytes.make nvars '\000';
    scc_stack = Array.make nvars 0;
    call_stack = Array.make nvars 0;
    next_succ = Array.make nvars 0;
    levels = [||];
  }

let nvars t = t.nvars
let nvalues t = t.nvalues
let domain t v = t.domains.(v)

let restrict t ~var ~allowed = ignore (Domain.keep_only t.domains.(var) allowed)

let add_alldifferent t =
  t.alldifferent <- true;
  t.stale <- true

let transpose nvalues bad =
  let rev = Array.init nvalues (fun _ -> Domain.empty nvalues) in
  Array.iteri (fun j row -> Domain.iter (fun j' -> Domain.add rev.(j') j) row) bad;
  rev

let grow a len fill =
  let b = Array.make (max 8 (2 * Array.length a)) fill in
  Array.blit a 0 b 0 len;
  b

let add_forbidden_pairs t ~x ~y ~bad =
  if x < 0 || x >= t.nvars || y < 0 || y >= t.nvars then
    invalid_arg "Csp.add_forbidden_pairs: variable out of range";
  if x = y then invalid_arg "Csp.add_forbidden_pairs: x and y must differ";
  if Array.length bad <> t.nvalues then
    invalid_arg "Csp.add_forbidden_pairs: bad matrix has wrong width";
  if bad != t.last_bad then begin
    if Array.exists (fun row -> Domain.universe row <> t.nvalues) bad then
      invalid_arg "Csp.add_forbidden_pairs: bad row has the wrong universe";
    t.last_bad <- bad;
    t.last_bad_rev <- transpose t.nvalues bad
  end;
  let c = t.nbin in
  if c = Array.length t.bin_x then begin
    t.bin_x <- grow t.bin_x c 0;
    t.bin_y <- grow t.bin_y c 0;
    t.bin_bad <- grow t.bin_bad c [||];
    t.bin_bad_rev <- grow t.bin_bad_rev c [||];
    t.queue <- Array.make (Array.length t.bin_x) 0;
    t.queued <- Bytes.make (Array.length t.bin_x) '\000';
    t.watch <- Array.make (2 * Array.length t.bin_x) 0;
    t.q_head <- 0
  end;
  t.bin_x.(c) <- x;
  t.bin_y.(c) <- y;
  t.bin_bad.(c) <- bad;
  t.bin_bad_rev.(c) <- t.last_bad_rev;
  t.nbin <- c + 1;
  t.watches_valid <- false;
  t.stale <- true

let build_watches t =
  let start = t.watch_start in
  Array.fill start 0 (t.nvars + 1) 0;
  for c = 0 to t.nbin - 1 do
    start.(t.bin_x.(c) + 1) <- start.(t.bin_x.(c) + 1) + 1;
    start.(t.bin_y.(c) + 1) <- start.(t.bin_y.(c) + 1) + 1
  done;
  for v = 1 to t.nvars do
    start.(v) <- start.(v) + start.(v - 1)
  done;
  (* Fill back to front, decrementing each variable's end pointer, then
     shift the pointers back into place. *)
  for c = t.nbin - 1 downto 0 do
    let x = t.bin_x.(c) and y = t.bin_y.(c) in
    start.(x + 1) <- start.(x + 1) - 1;
    t.watch.(start.(x + 1)) <- c;
    start.(y + 1) <- start.(y + 1) - 1;
    t.watch.(start.(y + 1)) <- c
  done;
  for v = 0 to t.nvars - 1 do
    start.(v) <- start.(v + 1)
  done;
  start.(t.nvars) <- 2 * t.nbin;
  t.watches_valid <- true

(* ---- Queue ---- *)

let enqueue t c =
  if Bytes.unsafe_get t.queued c = '\000' then begin
    Bytes.unsafe_set t.queued c '\001';
    let cap = Array.length t.queue in
    let slot = t.q_head + t.q_len in
    t.queue.(if slot >= cap then slot - cap else slot) <- c;
    t.q_len <- t.q_len + 1
  end

(* Queue every constraint on [v] except [skip]: a propagator is
   idempotent, so the one that just narrowed [v] is already at fixpoint. *)
let wake t v ~skip =
  for i = t.watch_start.(v) to t.watch_start.(v + 1) - 1 do
    let c = t.watch.(i) in
    if c <> skip then enqueue t c
  done;
  t.regin_pending <- t.alldifferent;
  t.progress <- true

let pop t =
  let c = t.queue.(t.q_head) in
  Bytes.unsafe_set t.queued c '\000';
  t.q_head <- (if t.q_head + 1 = Array.length t.queue then 0 else t.q_head + 1);
  t.q_len <- t.q_len - 1;
  c

let clear_queue t =
  while t.q_len > 0 do
    ignore (pop t : int)
  done;
  t.q_head <- 0;
  t.regin_pending <- false

(* ---- Propagators ---- *)

(* Binary negative-table propagation: value j stays in D(x) iff some value
   of D(y) is compatible, i.e. D(y) ⊄ bad(j). When D(y) is a singleton {v},
   pruning D(x) reduces to removing bad_rev(v) — the x-values forbidden
   with y = v — in one bitset operation. [conflicts] maps a candidate
   value of [d] to the [other] values it conflicts with; [by_value] maps a
   fixed value of [other] to the [d] values it rules out. *)
let prune d other ~conflicts ~by_value =
  if Domain.is_singleton other then Domain.subtract d by_value.(Domain.min_value other)
  else Domain.remove_unsupported d ~other ~conflicts

(* Arc consistency for constraint [c] in both directions; one run is
   idempotent (a y-value that loses its support loses only x-values
   already gone). Wakes the constraints on each variable it narrows.
   Returns false on a wipe-out. *)
let propagate_forbidden t c =
  let x = t.bin_x.(c) and y = t.bin_y.(c) in
  let dx = t.domains.(x) and dy = t.domains.(y) in
  let bad = t.bin_bad.(c) and bad_rev = t.bin_bad_rev.(c) in
  let x_changed = prune dx dy ~conflicts:bad ~by_value:bad_rev in
  let y_changed = prune dy dx ~conflicts:bad_rev ~by_value:bad in
  if x_changed then wake t x ~skip:c;
  if y_changed then wake t y ~skip:c;
  not (Domain.is_empty dx || Domain.is_empty dy)

(* Kuhn augmenting-path DFS: try to match [x] to a value of its domain
   from [v] upwards, re-matching current owners recursively. Values are
   tried in ascending order, so given identical starting state the
   matching found is deterministic. *)
let rec kuhn_from t x v =
  if v < 0 then false
  else if t.seen.(v) = t.stamp then kuhn_from t x (Domain.next t.domains.(x) (v + 1))
  else begin
    t.seen.(v) <- t.stamp;
    let owner = t.pair_right.(v) in
    if owner = -1 || kuhn_from t owner (Domain.next t.domains.(owner) 0) then begin
      t.pair_left.(x) <- v;
      t.pair_right.(v) <- x;
      true
    end
    else kuhn_from t x (Domain.next t.domains.(x) (v + 1))
  end

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
  let ok = ref true and x = ref 0 and v = ref 0 in
  while !ok && !x < t.nvars do
    if t.pair_left.(!x) = -1 then begin
      (* A free value in the domain needs no augmenting path; only when
         there is none does the DFS re-match other variables. *)
      let d = t.domains.(!x) in
      v := Domain.next d 0;
      while !v >= 0 && t.pair_right.(!v) <> -1 do
        v := Domain.next d (!v + 1)
      done;
      if !v >= 0 then begin
        t.pair_left.(!x) <- !v;
        t.pair_right.(!v) <- !x
      end
      else begin
        t.stamp <- t.stamp + 1;
        ok := kuhn_from t !x (Domain.next d 0)
      end
    end;
    incr x
  done;
  !ok

let flag b i = Bytes.unsafe_get b i <> '\000'
let set_flag b i v = Bytes.unsafe_set b i (if v then '\001' else '\000')

(* [@cloudia.hot]: Régin's alldifferent filtering, run whenever a domain
   changed since its last run. With a perfect matching in hand, an
   unmatched edge (x, v) lies in some maximum matching iff v is reachable
   from a free value in the residual graph (matched edges var→value,
   unmatched value→var) or x and v share an SCC. Since a matched value's
   only in-arc comes from its owner, both tests run on the graph over
   variables with an arc x→x' iff x' ≠ x and the value matched to x is in
   D(x'): value v (owned by o) is reachable iff o is, and edge (x, v)
   closes a cycle iff x and o share an SCC there. Every buffer lives in
   [t]; the call allocates nothing. Returns false on failure. *)
let[@cloudia.hot] propagate_alldifferent t =
  if not (revalidate_matching t) then false
  else begin
    let n = t.nvars and m = t.nvalues in
    let doms = t.domains and pair_left = t.pair_left and pair_right = t.pair_right in
    let reach = t.reach and bfs = t.bfs in
    Bytes.fill reach 0 n '\000';
    (* Reachability from the free values, breadth first. *)
    let tail = ref 0 and head = ref 0 in
    for v = 0 to m - 1 do
      if pair_right.(v) = -1 then
        for x = 0 to n - 1 do
          if (not (flag reach x)) && Domain.mem doms.(x) v then begin
            set_flag reach x true;
            bfs.(!tail) <- x;
            incr tail
          end
        done
    done;
    while !head < !tail do
      let x = bfs.(!head) in
      incr head;
      let v = pair_left.(x) in
      for x' = 0 to n - 1 do
        if (not (flag reach x')) && Domain.mem doms.(x') v then begin
          set_flag reach x' true;
          bfs.(!tail) <- x';
          incr tail
        end
      done
    done;
    (* Iterative Tarjan over the unreachable variables. Successors of a
       reachable variable are reachable, so no cycle mixes the two sets
       and the SCCs found here are those of the whole graph. *)
    let index = t.index and low = t.low and comp = t.comp in
    let on_stack = t.on_stack and scc_stack = t.scc_stack in
    let call_stack = t.call_stack and next_succ = t.next_succ in
    Array.fill index 0 n (-1);
    Bytes.fill on_stack 0 n '\000';
    let counter = ref 0 and sp = ref 0 and csp = ref 0 in
    let succ = ref 0 and found = ref (-1) and popping = ref false in
    for root = 0 to n - 1 do
      if index.(root) = -1 && not (flag reach root) then begin
        index.(root) <- !counter;
        low.(root) <- !counter;
        incr counter;
        scc_stack.(!sp) <- root;
        incr sp;
        set_flag on_stack root true;
        next_succ.(root) <- 0;
        call_stack.(0) <- root;
        csp := 1;
        while !csp > 0 do
          let x = call_stack.(!csp - 1) in
          let v = pair_left.(x) in
          succ := next_succ.(x);
          found := -1;
          while !found < 0 && !succ < n do
            let y = !succ in
            if y <> x && (not (flag reach y)) && Domain.mem doms.(y) v then found := y;
            incr succ
          done;
          next_succ.(x) <- !succ;
          let y = !found in
          if y >= 0 then begin
            if index.(y) = -1 then begin
              index.(y) <- !counter;
              low.(y) <- !counter;
              incr counter;
              scc_stack.(!sp) <- y;
              incr sp;
              set_flag on_stack y true;
              next_succ.(y) <- 0;
              call_stack.(!csp) <- y;
              incr csp
            end
            else if flag on_stack y && index.(y) < low.(x) then low.(x) <- index.(y)
          end
          else begin
            decr csp;
            if low.(x) = index.(x) then begin
              popping := true;
              while !popping do
                decr sp;
                let w = scc_stack.(!sp) in
                set_flag on_stack w false;
                comp.(w) <- x;
                if w = x then popping := false
              done
            end;
            if !csp > 0 then begin
              let parent = call_stack.(!csp - 1) in
              if low.(x) < low.(parent) then low.(parent) <- low.(x)
            end
          end
        done
      end
    done;
    (* Prune: drop (x, v) when v's owner o is neither reachable nor in
       x's SCC. Free values (o = -1) are reachable and the matched value
       (o = x) stays; a reachable x shares no SCC with an unreachable o. *)
    let v = ref 0 and narrowed = ref false in
    for x = 0 to n - 1 do
      let d = doms.(x) in
      narrowed := false;
      v := Domain.next d 0;
      while !v >= 0 do
        let o = pair_right.(!v) in
        if
          o <> -1 && o <> x
          && (not (flag reach o))
          && (flag reach x || comp.(o) <> comp.(x))
        then begin
          ignore (Domain.remove d !v : bool);
          narrowed := true
        end;
        v := Domain.next d (!v + 1)
      done;
      if !narrowed then wake t x ~skip:(-1)
    done;
    (* GAC is idempotent: only the binary constraints just woken can make
       Régin worth another run. *)
    t.regin_pending <- false;
    true
  end

(* [@cloudia.hot]: the propagation loop. Drains the binary queue first;
   Régin runs only once the queue is empty and some domain changed since
   its last run. Binary AC and Régin's GAC are monotone and idempotent,
   so this order reaches the same greatest common fixpoint (or the same
   failure) as re-running every constraint until nothing changes. *)
let[@cloudia.hot] drain t =
  let ok = ref true in
  while !ok && (t.q_len > 0 || t.regin_pending) do
    if t.q_len > 0 then ok := propagate_forbidden t (pop t)
    else begin
      t.regin_pending <- false;
      ok := propagate_alldifferent t
    end
  done;
  !ok

let propagate t =
  if not t.watches_valid then build_watches t;
  if t.stale then begin
    for c = 0 to t.nbin - 1 do
      enqueue t c
    done;
    t.regin_pending <- t.alldifferent
  end
  else
    for x = 0 to t.nvars - 1 do
      if not (Domain.equal t.domains.(x) t.fixed.(x)) then wake t x ~skip:(-1)
    done;
  (* Seeding woke variables; only what the propagators narrow from here
     on is this call's progress. *)
  t.progress <- false;
  if not (drain t) then begin
    clear_queue t;
    Failure
  end
  else begin
    for x = 0 to t.nvars - 1 do
      Domain.blit ~src:t.domains.(x) ~dst:t.fixed.(x)
    done;
    t.stale <- false;
    if t.progress then Progress else Fixpoint
  end

let reset t =
  let full = Domain.full t.nvalues in
  Array.iter (fun d -> Domain.blit ~src:full ~dst:d) t.domains;
  Array.fill t.bin_bad 0 t.nbin [||];
  Array.fill t.bin_bad_rev 0 t.nbin [||];
  t.nbin <- 0;
  t.last_bad <- [||];
  t.last_bad_rev <- [||];
  t.watches_valid <- false;
  t.stale <- true
(* The cached matching survives reset on purpose: a matching valid under
   the shrunken domains is still a matching under the refilled ones, so
   the next threshold iteration starts with zero augmenting work. *)

let save t = Array.map Domain.copy t.domains

let restore t snapshot =
  for x = 0 to t.nvars - 1 do
    Domain.blit ~src:snapshot.(x) ~dst:t.domains.(x)
  done

let save_level t level =
  let have = Array.length t.levels in
  if level >= have then
    t.levels <- Array.append t.levels (Array.init (level + 1 - have) (fun _ -> save t))
  else
    for x = 0 to t.nvars - 1 do
      Domain.blit ~src:t.domains.(x) ~dst:t.levels.(level).(x)
    done

let restore_level t level = restore t t.levels.(level)

let assignment t =
  if Array.for_all Domain.is_singleton t.domains then
    Some (Array.map Domain.min_value t.domains)
  else None
