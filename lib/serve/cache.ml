(* Cross-job caches of the advising daemon, all keyed (directly or as a
   key prefix) by the cost matrix's content fingerprint. Tenants
   re-advising after a re-measurement tend to submit the same matrix —
   fingerprints match bit-for-bit — so rank tables, clusterings, and
   previous incumbents transfer across jobs and tenants. One mutex guards
   all three LRUs and every entry's clusterings: every operation is a hash
   lookup, far cheaper than the solves running between them. *)

let c_hits = Obs.Counter.make "serve.cache_hits"
let c_misses = Obs.Counter.make "serve.cache_misses"

type incumbent = { plan : int array; cost : float }

(* What the daemon knows of one matrix: its rank table, and the
   clusterings derived from it, keyed by k ([None]: exact levels). *)
type matrix = {
  ranks : Lat_matrix.Ranks.t;
  clusterings : (int option, Cloudia.Clustering.t) Lru.t;
}

type t = {
  lock : Mutex.t;
  matrices : (string, matrix) Lru.t;
  incumbents : (string, incumbent) Lru.t;
  memo : (string, incumbent) Lru.t;
}

let create ~capacity =
  {
    lock = Mutex.create ();
    matrices = Lru.create ~capacity;
    incumbents = Lru.create ~capacity;
    memo = Lru.create ~capacity;
  }

let fingerprint = Lat_matrix.fingerprint_hex

let graph_key g =
  Digest.to_hex (Digest.string (Graphs.Graph_io.print_edge_list g))

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let find lru t key =
  locked t (fun () ->
      match Lru.find lru key with
      | Some v ->
          Obs.Counter.incr c_hits;
          Some v
      | None ->
          Obs.Counter.incr c_misses;
          None)

(* [find_or] computes outside the lock: table and clustering construction
   is O(n² log n) and must not serialize the worker domains. Two workers
   racing on the same key both compute and the later [put] wins — wasted
   work, never a wrong answer (both computed the same pure value). *)
let find_or lru t key compute =
  match find lru t key with
  | Some v -> v
  | None ->
      let v = compute () in
      locked t (fun () -> Lru.put lru key v);
      v

let entry t ~key lat =
  find_or t.matrices t key (fun () ->
      let clusterings = Lru.create ~capacity:(Lru.capacity t.matrices) in
      { ranks = Lat_matrix.Ranks.of_matrix lat; clusterings })

let ranks t ~key lat = (entry t ~key lat).ranks

let clustering t ~key ~k lat =
  let { ranks; clusterings } = entry t ~key lat in
  find_or clusterings t k (fun () ->
      match k with
      | Some k -> Cloudia.Clustering.cluster ~ranks ~k lat
      | None -> Cloudia.Clustering.none ~ranks lat)

let incumbent t ~key = find t.incumbents t key

let note_incumbent t ~key plan cost =
  locked t (fun () ->
      match Lru.find t.incumbents key with
      | Some prev when prev.cost <= cost -> ()
      | _ -> Lru.put t.incumbents key { plan = Array.copy plan; cost })

let memo_find t ~key = find t.memo t key

let memo_add t ~key plan cost =
  locked t (fun () -> Lru.put t.memo key { plan = Array.copy plan; cost })

let stats t =
  locked t (fun () ->
      [
        ("cache.matrices", Lru.length t.matrices);
        ("cache.incumbents", Lru.length t.incumbents);
        ("cache.memo", Lru.length t.memo);
      ])
