open Diagnostic

(* Aggregate per-entry findings: one diagnostic per code, carrying the
   first offending location and the total count. *)
type tally = { mutable count : int; mutable first : string; mutable detail : string }

let tally () = { count = 0; first = ""; detail = "" }

(* [describe] builds (context, detail) and runs for the first hit only,
   so a clean pass over n² entries formats nothing. *)
let hit t describe =
  if t.count = 0 then begin
    let context, detail = describe () in
    t.first <- context;
    t.detail <- detail
  end;
  t.count <- t.count + 1

let flush t severity ~code acc =
  if t.count = 0 then acc
  else
    let message =
      if t.count = 1 then t.detail
      else Printf.sprintf "%s (%d occurrences in total)" t.detail t.count
    in
    make severity ~code ~context:t.first message :: acc

(* One row-major pass over the flat buffer for the per-entry codes, then
   the pairwise scans on a clean matrix. Entries are read unboxed and a
   [hit] closure is built only for an offending entry, so a clean pass
   allocates nothing per entry. *)
let check_lat ?(asymmetry_tolerance = 0.5) ?(max_triangle_n = 128) lat =
  let n = Lat_matrix.dim lat in
  let d = Lat_matrix.data lat in
  let non_finite = tally () in
  let negative = tally () in
  let diagonal = tally () in
  let unsampled = tally () in
  let asymmetric = tally () in
  let at i j = Printf.sprintf "costs[%d][%d]" i j in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let c = Bigarray.Array2.unsafe_get d i j in
      if Float.is_nan c && i <> j then hit unsampled (fun () -> (at i j, ""))
      else if not (Float.is_finite c) then
        hit non_finite (fun () ->
            ( at i j,
              Printf.sprintf "entry (%d,%d) is %s; latencies must be finite" i j
                (if Float.is_nan c then "NaN" else "infinite") ))
      else if c < 0.0 then
        hit negative (fun () -> (at i j, Printf.sprintf "entry (%d,%d) = %g is negative" i j c))
      else if i = j && c <> 0.0 then
        hit diagonal (fun () ->
            ( at i j,
              Printf.sprintf
                "diagonal entry (%d,%d) = %g must be 0 (an instance talks to itself for free)" i
                j c ))
    done
  done;
  let clean =
    non_finite.count = 0 && negative.count = 0 && diagonal.count = 0 && unsampled.count = 0
  in
  if clean then
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let a = Bigarray.Array2.unsafe_get d i j and b = Bigarray.Array2.unsafe_get d j i in
        (* Entries are finite and non-negative here, so this is [Float.max]. *)
        let scale = if a >= b then a else b in
        if scale > 0.0 && Float.abs (a -. b) > asymmetry_tolerance *. scale then
          hit asymmetric (fun () ->
              ( at i j,
                Printf.sprintf
                  "cost(%d,%d)=%g vs cost(%d,%d)=%g differ by more than %.0f%%; check the measurements"
                  i j a j i b (100.0 *. asymmetry_tolerance) ))
      done
    done;
  let triangle =
    if not clean || n > max_triangle_n then []
    else begin
      let violations = ref 0 and example = ref "" in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if j <> i then begin
            let ij = Bigarray.Array2.unsafe_get d i j in
            for k = 0 to n - 1 do
              if k <> i && k <> j then begin
                let ik = Bigarray.Array2.unsafe_get d i k
                and jk = Bigarray.Array2.unsafe_get d j k in
                if ik > ij +. jk then begin
                  if !violations = 0 then
                    example :=
                      Printf.sprintf "e.g. cost(%d,%d)=%g > cost(%d,%d)+cost(%d,%d)=%g" i k ik i
                        j j k (ij +. jk);
                  incr violations
                end
              end
            done
          end
        done
      done;
      if !violations = 0 then []
      else
        [
          make Info ~code:"LAT006" ~context:"costs"
            (Printf.sprintf
               "%d triangle-inequality violation(s) among %d triples (%s) — expected on real networks, but a high count suggests noisy measurements"
               !violations (n * (n - 1) * (n - 2)) !example);
        ]
    end
  in
  (* LAT007 reports the coverage share rather than one entry: the fix is
     per measurement, not per cell. *)
  let unsampled_diag acc =
    if unsampled.count = 0 then acc
    else
      let total = n * (n - 1) in
      make Error ~code:"LAT007" ~context:unsampled.first
        (Printf.sprintf
           "%d of %d ordered pairs (%.1f%%) have no measured latency (NaN); a partial matrix must not reach a solver — rerun the measurement, impute (advise --on-missing impute) or drop instances (advise --on-missing drop)"
           unsampled.count total
           (100.0 *. float_of_int unsampled.count /. float_of_int total))
      :: acc
  in
  triangle
  |> unsampled_diag
  |> flush asymmetric Warning ~code:"LAT005"
  |> flush diagonal Error ~code:"LAT004"
  |> flush negative Error ~code:"LAT003"
  |> flush non_finite Error ~code:"LAT002"
  |> List.rev

(* Boxed rows may be ragged, which no [Lat_matrix.t] can hold: that is
   LAT001 alone; a square matrix gets the flat check. *)
let check_matrix ?asymmetry_tolerance ?max_triangle_n costs =
  let n = Array.length costs in
  let not_square = tally () in
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        hit not_square (fun () ->
            ( Printf.sprintf "costs[%d]" i,
              Printf.sprintf "row %d has %d entries, expected %d" i (Array.length row) n )))
    costs;
  if not_square.count > 0 then flush not_square Error ~code:"LAT001" []
  else check_lat ?asymmetry_tolerance ?max_triangle_n (Lat_matrix.of_arrays costs)

let check_edges ~n edges =
  let self_loops = tally () in
  let out_of_range = tally () in
  let duplicates = tally () in
  let seen = Hashtbl.create (List.length edges) in
  List.iter
    (fun (u, v) ->
      let context = Printf.sprintf "edge (%d,%d)" u v in
      if u < 0 || u >= n || v < 0 || v >= n then
        hit out_of_range (fun () ->
            (context, Printf.sprintf "edge (%d,%d) has an endpoint outside 0..%d" u v (n - 1)))
      else if u = v then
        hit self_loops (fun () ->
            ( context,
              Printf.sprintf
                "self-loop on node %d; a node never talks to itself over the network" u ))
      else if Hashtbl.mem seen (u, v) then
        hit duplicates (fun () ->
            ( context,
              Printf.sprintf "edge (%d,%d) appears more than once; duplicates are collapsed" u v
            ))
      else Hashtbl.add seen (u, v) ())
    edges;
  []
  |> flush duplicates Warning ~code:"GRF003"
  |> flush out_of_range Error ~code:"GRF002"
  |> flush self_loops Error ~code:"GRF001"
  |> List.rev

let check_graph ?pool ?(requires_dag = false) graph =
  let n = Graphs.Digraph.n graph in
  let acc = ref [] in
  let add d = acc := d :: !acc in
  if n = 0 || Graphs.Digraph.edge_count graph = 0 then
    add
      (make Error ~code:"GRF008" ~context:"graph"
         "empty communication graph: no nodes talk, so every objective is vacuous");
  (match pool with
  | Some pool when n > pool ->
      add
        (make Error ~code:"GRF006" ~context:"graph"
           (Printf.sprintf
              "%d application nodes but only %d allocated instances; the deployment injection needs |V| <= |S| (Definition 2)"
              n pool))
  | _ -> ());
  if requires_dag && not (Graphs.Digraph.is_dag graph) then
    add
      (make Error ~code:"GRF005" ~context:"graph"
         "communication graph has a directed cycle; the longest-path objective (LPNDP, Sect. 4.2) is only defined on DAGs");
  if n > 1 && not (Graphs.Digraph.is_connected_undirected graph) then
    add
      (make Warning ~code:"GRF004" ~context:"graph"
         "communication graph is not (weakly) connected; disconnected components optimize independently — was the template intended?");
  if n > 1 then begin
    let isolated = ref 0 and first = ref (-1) in
    for v = 0 to n - 1 do
      if Graphs.Digraph.undirected_degree graph v = 0 then begin
        if !isolated = 0 then first := v;
        incr isolated
      end
    done;
    if !isolated > 0 then
      add
        (make Info ~code:"GRF007" ~context:(Printf.sprintf "node %d" !first)
           (Printf.sprintf
              "%d node(s) have no incident edges; they never communicate and any placement is optimal for them"
              !isolated))
  end;
  List.rev !acc

let check_config ?time_limit ?domains ?pool ?over_allocation ?samples_per_pair () =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  (match time_limit with
  | Some t when not (Float.is_finite t && t > 0.0) ->
      add
        (make Error ~code:"CFG001" ~context:"config.time_limit"
           (Printf.sprintf "solver time limit %g must be finite and positive" t))
  | _ -> ());
  (match domains with
  | Some d when d < 1 ->
      add
        (make Error ~code:"CFG002" ~context:"config.domains"
           (Printf.sprintf "portfolio needs at least one domain, got %d" d))
  | _ -> ());
  (match (domains, pool) with
  | Some d, Some p when d >= 1 && d > p ->
      add
        (make Warning ~code:"CFG003" ~context:"config.domains"
           (Printf.sprintf
              "%d portfolio domains for a pool of %d instances; extra workers only duplicate effort"
              d p))
  | _ -> ());
  (match over_allocation with
  | Some o when o < 0.0 ->
      add
        (make Error ~code:"CFG004" ~context:"config.over_allocation"
           (Printf.sprintf "over-allocation ratio %g must be non-negative" o))
  | _ -> ());
  (match samples_per_pair with
  | Some s when s <= 0 ->
      add
        (make Error ~code:"CFG005" ~context:"config.samples_per_pair"
           (Printf.sprintf "need a positive number of RTT samples per pair, got %d" s))
  | _ -> ());
  List.rev !acc

let check_partial ?(context = "costs") ~total ~imputed ~dropped () =
  let acc = ref [] in
  let add d = acc := d :: !acc in
  let pct part =
    if total <= 0 then 0.0 else 100.0 *. float_of_int part /. float_of_int total
  in
  if imputed > 0 then
    add
      (make Warning ~code:"LAT008" ~context
         (Printf.sprintf
            "%d of %d ordered pairs (%.1f%%) carry imputed (not measured) latencies; deployment costs on those links are conservative estimates"
            imputed total (pct imputed)));
  if dropped > 0 then
    add
      (make Warning ~code:"LAT009" ~context
         (Printf.sprintf
            "%d instance(s) dropped for lack of measurement coverage; the advisor optimizes over the remaining pool"
            dropped));
  List.rev !acc
