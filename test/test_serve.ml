(* Tests for the advising daemon: wire protocol codecs and framing, the
   LRU behind the caches, queue backpressure, end-to-end advises with
   memo hits and warm starts, and resilience to abrupt client
   disconnects. Server tests run a real daemon on a Unix socket under a
   temp path. *)

let check_bits name expected actual =
  Alcotest.(check int64)
    (Printf.sprintf "%s: expected %h got %h" name expected actual)
    (Int64.bits_of_float expected) (Int64.bits_of_float actual)

let socket_path tag =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "cloudia-test-%d-%s.sock" (Unix.getpid ()) tag)

(* A 4-node ring over 6 instances (over-allocated), distinct finite
   latencies — cheap for every solver and deterministic for greedy. *)
let ring4 = Graphs.Templates.ring ~n:4

let costs6 =
  Lat_matrix.init 6 (fun i j ->
      if i = j then 0.0 else 0.3 +. (float_of_int (((5 * i) + j) mod 11) /. 7.0))

let job ?(id = "j") ?(tenant = "t") ?(seed = 1) ?(solver = Serve.Protocol.Greedy)
    ?(objective = Cloudia.Cost.Longest_link) ?(budget = 5.0) ?deadline ?max_moves
    ?clusters ?(graph = ring4) ?(costs = costs6) () =
  {
    Serve.Protocol.id;
    tenant;
    seed;
    solver;
    objective;
    budget;
    deadline;
    max_moves;
    clusters;
    graph;
    costs;
  }

(* ---------- Protocol codecs ---------- *)

let roundtrip_request r =
  Serve.Protocol.request_of_json
    (Obs.Json.parse (Obs.Json.to_string (Serve.Protocol.json_of_request r)))

let roundtrip_reply r =
  Serve.Protocol.reply_of_json
    (Obs.Json.parse (Obs.Json.to_string (Serve.Protocol.json_of_reply r)))

let test_request_roundtrip () =
  (* All optional fields present, plus a NaN entry (unsampled pair) that
     must survive as JSON null. *)
  let costs =
    Lat_matrix.init 3 (fun i j ->
        if i = j then 0.0
        else if i = 0 && j = 2 then Float.nan
        else 1.5 +. float_of_int ((3 * i) + j))
  in
  let j =
    job ~id:"rt" ~tenant:"acme" ~seed:42 ~solver:Serve.Protocol.Cp
      ~objective:Cloudia.Cost.Longest_path ~budget:2.5 ~deadline:7.0 ~max_moves:99
      ~clusters:4
      ~graph:(Graphs.Templates.ring ~n:3)
      ~costs ()
  in
  match roundtrip_request (Serve.Protocol.Advise j) with
  | Serve.Protocol.Advise j' ->
      Alcotest.(check string) "id" j.Serve.Protocol.id j'.Serve.Protocol.id;
      Alcotest.(check string) "tenant" j.Serve.Protocol.tenant j'.Serve.Protocol.tenant;
      Alcotest.(check int) "seed" j.Serve.Protocol.seed j'.Serve.Protocol.seed;
      Alcotest.(check string) "solver"
        (Serve.Protocol.solver_to_string j.Serve.Protocol.solver)
        (Serve.Protocol.solver_to_string j'.Serve.Protocol.solver);
      Alcotest.(check string) "objective"
        (Cloudia.Cost.objective_to_string j.Serve.Protocol.objective)
        (Cloudia.Cost.objective_to_string j'.Serve.Protocol.objective);
      check_bits "budget" j.Serve.Protocol.budget j'.Serve.Protocol.budget;
      Alcotest.(check (option (float 0.0))) "deadline" j.Serve.Protocol.deadline
        j'.Serve.Protocol.deadline;
      Alcotest.(check (option int)) "max_moves" j.Serve.Protocol.max_moves
        j'.Serve.Protocol.max_moves;
      Alcotest.(check (option int)) "clusters" j.Serve.Protocol.clusters
        j'.Serve.Protocol.clusters;
      Alcotest.(check string) "graph"
        (Graphs.Graph_io.print_edge_list j.Serve.Protocol.graph)
        (Graphs.Graph_io.print_edge_list j'.Serve.Protocol.graph);
      Alcotest.(check bool) "costs bit-exact (incl. NaN)" true
        (Lat_matrix.equal j.Serve.Protocol.costs j'.Serve.Protocol.costs)
  | _ -> Alcotest.fail "advise did not round-trip to advise"

let test_request_roundtrip_optionals_absent () =
  match roundtrip_request (Serve.Protocol.Advise (job ())) with
  | Serve.Protocol.Advise j' ->
      Alcotest.(check (option (float 0.0))) "deadline" None j'.Serve.Protocol.deadline;
      Alcotest.(check (option int)) "max_moves" None j'.Serve.Protocol.max_moves;
      Alcotest.(check (option int)) "clusters" None j'.Serve.Protocol.clusters
  | _ -> Alcotest.fail "advise did not round-trip to advise"

let test_control_roundtrips () =
  Alcotest.(check bool) "ping" true
    (roundtrip_request Serve.Protocol.Ping = Serve.Protocol.Ping);
  Alcotest.(check bool) "stats" true
    (roundtrip_request Serve.Protocol.Stats_request = Serve.Protocol.Stats_request)

let test_reply_roundtrips () =
  let replies =
    [
      Serve.Protocol.Result
        {
          r_id = "r1";
          r_plan = [| 2; 0; 5; 1 |];
          r_cost = 12.5;
          r_cached = true;
          r_warm = false;
          r_fingerprint = "00ff00ff00ff00ff";
          r_latency_ms = 3.25;
        };
      Serve.Protocol.Rejected { j_id = "r2"; reason = "queue full" };
      Serve.Protocol.Failed { j_id = "r3"; message = "solver raised" };
      Serve.Protocol.Pong;
      Serve.Protocol.Stats [ ("cache.memo", 1); ("serve.jobs", 3) ];
    ]
  in
  List.iter
    (fun r -> Alcotest.(check bool) "reply round-trips" true (roundtrip_reply r = r))
    replies

let expect_protocol_error name f =
  match f () with
  | _ -> Alcotest.fail (name ^ ": expected Protocol_error")
  | exception Serve.Protocol.Protocol_error _ -> ()

(* A job whose graph has an edge endpoint of 1.5. *)
let non_integer_edge =
  {|{"type":"advise","job":{"id":"x","tenant":"t","seed":1,"solver":"greedy",
     "objective":"longest-link","budget":1.0,
     "graph":{"n":2,"edges":[[0,1.5]]},"costs":[[0,1],[2,0]]}}|}

let test_codec_rejects_garbage () =
  expect_protocol_error "non-object request" (fun () ->
      Serve.Protocol.request_of_json (Obs.Json.Str "nope"));
  expect_protocol_error "unknown reply tag" (fun () ->
      Serve.Protocol.reply_of_json
        (Obs.Json.Obj [ ("type", Obs.Json.Str "bogus") ]));
  expect_protocol_error "advise missing fields" (fun () ->
      Serve.Protocol.request_of_json (Obs.Json.parse {|{"type":"advise"}|}));
  expect_protocol_error "ragged matrix" (fun () ->
      Serve.Protocol.request_of_json
        (Obs.Json.parse
           {|{"type":"advise","id":"x","tenant":"t","seed":1,"solver":"greedy",
              "objective":"longest-link","budget":1.0,
              "graph":{"n":2,"edges":[[0,1]]},"costs":[[0,1],[2]]}|}));
  expect_protocol_error "non-integer edge endpoint" (fun () ->
      Serve.Protocol.request_of_json (Obs.Json.parse non_integer_edge))

(* ---------- Framing ---------- *)

let with_socketpair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error (_, _, _) -> ());
      try Unix.close b with Unix.Unix_error (_, _, _) -> ())
    (fun () -> f a b)

let test_framing_roundtrip_and_eof () =
  with_socketpair @@ fun a b ->
  Serve.Protocol.write_frame a "hello";
  Serve.Protocol.write_frame a "";
  Alcotest.(check (option string)) "first frame" (Some "hello")
    (Serve.Protocol.read_frame b);
  Alcotest.(check (option string)) "empty frame" (Some "")
    (Serve.Protocol.read_frame b);
  Unix.close a;
  Alcotest.(check (option string)) "clean EOF is None" None
    (Serve.Protocol.read_frame b)

let test_framing_eof_mid_frame () =
  with_socketpair @@ fun a b ->
  (* Header promises 10 bytes; deliver 3 and hang up. *)
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 0;
  Bytes.set_uint8 header 1 0;
  Bytes.set_uint8 header 2 0;
  Bytes.set_uint8 header 3 10;
  let _ = Unix.write a header 0 4 in
  let _ = Unix.write_substring a "abc" 0 3 in
  Unix.close a;
  match Serve.Protocol.read_frame b with
  | _ -> Alcotest.fail "expected End_of_file mid-frame"
  | exception End_of_file -> ()

let test_framing_rejects_oversized () =
  with_socketpair @@ fun a b ->
  (* A length header one past the cap must be refused before any payload
     is read. max_frame_bytes is 16 MiB = 0x1000000. *)
  Alcotest.(check int) "cap value" (16 * 1024 * 1024) Serve.Protocol.max_frame_bytes;
  let header = Bytes.create 4 in
  Bytes.set_uint8 header 0 0x01;
  Bytes.set_uint8 header 1 0x00;
  Bytes.set_uint8 header 2 0x00;
  Bytes.set_uint8 header 3 0x01;
  let _ = Unix.write a header 0 4 in
  expect_protocol_error "oversized frame" (fun () -> Serve.Protocol.read_frame b)

let test_recv_rejects_malformed_json () =
  with_socketpair @@ fun a b ->
  Serve.Protocol.write_frame a "not json";
  expect_protocol_error "malformed request payload" (fun () ->
      Serve.Protocol.recv_request b)

(* Frames too large for the minor heap go through reused buffers: a
   frame, a larger one, then a smaller one read into the larger buffer
   all decode to what was sent, and a malformed frame in between leaves
   the next one readable. *)
let test_large_frames_reuse_buffers () =
  with_socketpair @@ fun a b ->
  let costs n =
    Lat_matrix.init n (fun i j ->
        if i = j then 0.0 else 0.25 +. float_of_int (((7 * i) + j) mod 13))
  in
  let jobs = List.map (fun n -> job ~id:(string_of_int n) ~costs:(costs n) ()) [ 30; 60; 25 ] in
  let send j = Serve.Protocol.send_request a (Serve.Protocol.Advise j) in
  List.iter send jobs;
  Serve.Protocol.write_frame a (String.make 5000 '[');
  send (List.hd jobs);
  let expect (j : Serve.Protocol.job) =
    match Serve.Protocol.recv_request b with
    | Some (Serve.Protocol.Advise back) ->
        Alcotest.(check string) "id" j.id back.id;
        Alcotest.(check bool) (j.id ^ " costs") true (Lat_matrix.equal j.costs back.costs)
    | _ -> Alcotest.fail "expected an advise request"
  in
  List.iter expect jobs;
  expect_protocol_error "malformed large frame" (fun () -> Serve.Protocol.recv_request b);
  expect (List.hd jobs)

(* ---------- LRU ---------- *)

let test_lru_eviction_order () =
  let l = Serve.Lru.create ~capacity:2 in
  Serve.Lru.put l "a" 1;
  Serve.Lru.put l "b" 2;
  (* Touch "a" so "b" is the oldest, then overflow. *)
  Alcotest.(check (option int)) "find a" (Some 1) (Serve.Lru.find l "a");
  Serve.Lru.put l "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Serve.Lru.find l "b");
  Alcotest.(check (option int)) "a survives" (Some 1) (Serve.Lru.find l "a");
  Alcotest.(check (option int)) "c present" (Some 3) (Serve.Lru.find l "c");
  Alcotest.(check int) "length at capacity" 2 (Serve.Lru.length l)

let test_lru_replace_no_eviction () =
  let l = Serve.Lru.create ~capacity:2 in
  Serve.Lru.put l "a" 1;
  Serve.Lru.put l "b" 2;
  Serve.Lru.put l "a" 10;
  Alcotest.(check int) "replace keeps length" 2 (Serve.Lru.length l);
  Alcotest.(check (option int)) "replaced value" (Some 10) (Serve.Lru.find l "a");
  Alcotest.(check (option int)) "other intact" (Some 2) (Serve.Lru.find l "b")

let test_lru_mem_does_not_promote () =
  let l = Serve.Lru.create ~capacity:2 in
  Serve.Lru.put l "a" 1;
  Serve.Lru.put l "b" 2;
  Alcotest.(check bool) "mem sees a" true (Serve.Lru.mem l "a");
  (* mem must not have refreshed "a": it is still the eviction victim. *)
  Serve.Lru.put l "c" 3;
  Alcotest.(check (option int)) "a evicted despite mem" None (Serve.Lru.find l "a");
  Alcotest.(check bool) "capacity reported" true (Serve.Lru.capacity l = 2)

let test_lru_rejects_bad_capacity () =
  match Serve.Lru.create ~capacity:0 with
  | _ -> Alcotest.fail "capacity 0 must be rejected"
  | exception Invalid_argument _ -> ()

(* ---------- Server: backpressure and shutdown draining ---------- *)

let test_backpressure_and_shutdown_rejects () =
  (* No worker domains: jobs queue but never execute, so the queue fills
     deterministically. The third job bounces with "queue full"; the two
     queued ones are rejected with "shutting down" when the daemon
     stops. *)
  let sock = socket_path "bp" in
  let config =
    {
      (Serve.Server.default_config ~socket_path:sock) with
      domains = 0;
      queue_capacity = 2;
      cache_capacity = 4;
    }
  in
  let server = Serve.Server.start config in
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  let fd = Serve.Client.raw_fd c in
  Serve.Protocol.send_request fd (Serve.Protocol.Advise (job ~id:"q1" ()));
  Serve.Protocol.send_request fd (Serve.Protocol.Advise (job ~id:"q2" ()));
  Serve.Protocol.send_request fd (Serve.Protocol.Advise (job ~id:"q3" ()));
  (match Serve.Protocol.recv_reply fd with
  | Some (Serve.Protocol.Rejected { j_id; reason }) ->
      Alcotest.(check string) "overflow job bounced" "q3" j_id;
      Alcotest.(check string) "backpressure reason" "queue full" reason
  | _ -> Alcotest.fail "expected Rejected for the overflow job");
  Serve.Server.stop server;
  let drained = ref [] in
  for _ = 1 to 2 do
    match Serve.Protocol.recv_reply fd with
    | Some (Serve.Protocol.Rejected { j_id; reason }) ->
        Alcotest.(check string) "shutdown reason" "shutting down" reason;
        drained := j_id :: !drained
    | _ -> Alcotest.fail "expected shutdown rejection for queued job"
  done;
  Alcotest.(check (list string)) "both queued jobs answered" [ "q1"; "q2" ]
    (List.sort String.compare !drained);
  Alcotest.(check (option reject)) "connection closed after drain" None
    (Serve.Protocol.recv_reply fd)

(* ---------- Server: end-to-end advise ---------- *)

let with_server ?(domains = 1) tag f =
  let sock = socket_path tag in
  let config =
    {
      (Serve.Server.default_config ~socket_path:sock) with
      domains;
      queue_capacity = 8;
      cache_capacity = 8;
    }
  in
  let server = Serve.Server.start config in
  Fun.protect ~finally:(fun () -> Serve.Server.stop server) (fun () -> f sock)

(* [Protocol.Result]'s inline record cannot escape its match; copy the
   fields into a plain record the assertions can carry around. *)
type result_fields = {
  r_id : string;
  r_plan : int array;
  r_cost : float;
  r_cached : bool;
  r_warm : bool;
  r_fingerprint : string;
  r_latency_ms : float;
}

let advise_result c j =
  match Serve.Client.advise c j with
  | Serve.Protocol.Result { r_id; r_plan; r_cost; r_cached; r_warm; r_fingerprint; r_latency_ms }
    ->
      { r_id; r_plan; r_cost; r_cached; r_warm; r_fingerprint; r_latency_ms }
  | Serve.Protocol.Rejected { reason; _ } -> Alcotest.fail ("rejected: " ^ reason)
  | Serve.Protocol.Failed { message; _ } -> Alcotest.fail ("failed: " ^ message)
  | _ -> Alcotest.fail "expected a Result reply"

let check_valid_plan (r : int array) =
  Alcotest.(check int) "plan covers every node" (Graphs.Digraph.n ring4) (Array.length r);
  let seen = Hashtbl.create 8 in
  Array.iter
    (fun inst ->
      Alcotest.(check bool) "instance in range" true (inst >= 0 && inst < 6);
      Alcotest.(check bool) "instance used once" false (Hashtbl.mem seen inst);
      Hashtbl.replace seen inst ())
    r

let test_end_to_end_memo_and_warm () =
  with_server "e2e" @@ fun sock ->
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  Serve.Client.ping c;
  (* Cold greedy solve. *)
  let g1 = advise_result c (job ~id:"g1" ()) in
  Alcotest.(check string) "id echoed" "g1" g1.r_id;
  Alcotest.(check bool) "cold is not cached" false g1.r_cached;
  Alcotest.(check string) "fingerprint on the wire"
    (Lat_matrix.fingerprint_hex costs6) g1.r_fingerprint;
  Alcotest.(check bool) "finite cost" true (Float.is_finite g1.r_cost);
  Alcotest.(check bool) "latency measured" true (g1.r_latency_ms >= 0.0);
  check_valid_plan g1.r_plan;
  (* Identical re-submission is a memo hit with the identical answer. *)
  let g2 = advise_result c (job ~id:"g1-again" ()) in
  Alcotest.(check bool) "repeat served from memo" true g2.r_cached;
  check_bits "memo cost identical" g1.r_cost g2.r_cost;
  Alcotest.(check (array int)) "memo plan identical" g1.r_plan g2.r_plan;
  (* A different seed is a different job identity: no memo hit. *)
  let g3 = advise_result c (job ~id:"g3" ~seed:2 ()) in
  Alcotest.(check bool) "new seed misses memo" false g3.r_cached;
  (* Bounded anneal: deterministic, so memo-admissible; a re-seeded run
     on the same matrix must warm-start from the cached incumbent. *)
  let a1 = advise_result c (job ~id:"a1" ~solver:Serve.Protocol.Anneal ~seed:5 ~max_moves:300 ()) in
  Alcotest.(check bool) "anneal cold not cached" false a1.r_cached;
  let a2 = advise_result c (job ~id:"a2" ~solver:Serve.Protocol.Anneal ~seed:5 ~max_moves:300 ()) in
  Alcotest.(check bool) "bounded anneal memoized" true a2.r_cached;
  check_bits "anneal memo cost identical" a1.r_cost a2.r_cost;
  let a3 = advise_result c (job ~id:"a3" ~solver:Serve.Protocol.Anneal ~seed:6 ~max_moves:300 ()) in
  Alcotest.(check bool) "re-seed misses memo" false a3.r_cached;
  Alcotest.(check bool) "re-seed warm-starts" true a3.r_warm;
  (* Stats reflect the traffic. *)
  let stats = Serve.Client.stats c in
  let get k = match List.assoc_opt k stats with Some v -> v | None -> 0 in
  Alcotest.(check bool) "jobs counted" true (get "serve.jobs" > 0);
  Alcotest.(check bool) "cache hits counted" true (get "serve.cache_hits" > 0);
  Alcotest.(check bool) "memo occupied" true (get "cache.memo" >= 1);
  Alcotest.(check bool) "incumbents occupied" true (get "cache.incumbents" >= 1)

let test_solver_failure_is_replied () =
  (* The CP solver rejects the longest-path objective: the daemon must
     answer Failed, not drop the connection or the worker. *)
  with_server "fail" @@ fun sock ->
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (match
     Serve.Client.advise c
       (job ~id:"bad" ~solver:Serve.Protocol.Cp ~objective:Cloudia.Cost.Longest_path ())
   with
  | Serve.Protocol.Failed { j_id; message } ->
      Alcotest.(check string) "id echoed" "bad" j_id;
      Alcotest.(check bool) "message present" true (String.length message > 0)
  | _ -> Alcotest.fail "expected Failed");
  (* The worker survived: the next job is answered normally. *)
  let r = advise_result c (job ~id:"ok" ()) in
  Alcotest.(check string) "worker alive" "ok" r.r_id

let test_invalid_fields_failed () =
  (* Out-of-range fields are refused at enqueue with one message naming
     the field, whichever solver the job names; the connection stays
     open for the next job. *)
  with_server "invalid" @@ fun sock ->
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (* Process-wide counter: compare against its value on entry. *)
  let jobs () =
    Option.value ~default:0 (List.assoc_opt "serve.jobs" (Serve.Client.stats c))
  in
  let jobs_before = jobs () in
  let failed j =
    match Serve.Client.advise c j with
    | Serve.Protocol.Failed { j_id; message } ->
        Alcotest.(check string) "id echoed" j.Serve.Protocol.id j_id;
        message
    | _ -> Alcotest.fail (j.Serve.Protocol.id ^ ": expected Failed")
  in
  let zero_budget =
    List.map
      (fun solver ->
        failed (job ~id:(Serve.Protocol.solver_to_string solver) ~solver ~budget:0.0 ()))
      Serve.Protocol.[ Cp; Anneal; Greedy; Descent ]
  in
  List.iter
    (Alcotest.(check string) "same message for every solver"
       "invalid job: budget must be finite and > 0 (got 0)")
    zero_budget;
  let names field message =
    Alcotest.(check bool) (message ^ " names " ^ field) true
      (String.starts_with ~prefix:("invalid job: " ^ field) message)
  in
  names "budget" (failed (job ~id:"neg" ~budget:(-1.0) ()));
  names "deadline" (failed (job ~id:"dl" ~deadline:0.0 ()));
  names "max_moves"
    (failed (job ~id:"moves" ~solver:Serve.Protocol.Anneal ~max_moves:(-5) ()));
  names "clusters" (failed (job ~id:"k" ~solver:Serve.Protocol.Cp ~clusters:0 ()));
  let r = advise_result c (job ~id:"ok" ()) in
  Alcotest.(check string) "valid job still answered" "ok" r.r_id;
  Alcotest.(check int) "only the valid job ran" (jobs_before + 1) (jobs ())

let test_garbage_frame_answered () =
  (* A frame the codec cannot decode gets one Failed reply and costs only
     its own connection: the daemon answers the next one. *)
  with_server "garbage" @@ fun sock ->
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) (fun () ->
      (* A reader that dies never answers: fail after 5 s, do not hang. *)
      Unix.setsockopt_float (Serve.Client.raw_fd c) Unix.SO_RCVTIMEO 5.0;
      Serve.Protocol.write_frame (Serve.Client.raw_fd c) non_integer_edge;
      match Serve.Protocol.recv_reply (Serve.Client.raw_fd c) with
      | Some (Serve.Protocol.Failed { message; _ }) ->
          Alcotest.(check string) "names the bad integer" {|bad integer "1.5"|} message
      | _ -> Alcotest.fail "expected one Failed reply");
  let c2 = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c2) (fun () -> Serve.Client.ping c2)

(* ---------- One gate for every entry point ---------- *)

let codes ds = List.map (fun d -> d.Lint.Diagnostic.code) (Lint.Diagnostic.sort ds)

(* The codes a daemon's Failed message names, in order. *)
let codes_in message =
  let rec go i acc =
    match String.index_from_opt message i '[' with
    | Some j when j >= 5 && String.sub message (j - 5) 5 = "error" ->
        go (j + 1) (String.sub message (j + 1) 6 :: acc)
    | Some j -> go (j + 1) acc
    | None -> List.rev acc
  in
  go 0 []

let matrix4 ?(cell12 = "2") ?(diag0 = "0") ?(cell01 = "1") () =
  Printf.sprintf "%s, %s, 2, 3\n1, 0, %s, 2\n2, 1, 0, 1\n3, 2, 1, 0\n" diag0 cell01 cell12

let matrix9 =
  String.concat ""
    (List.init 9 (fun i ->
         String.concat ", "
           (List.init 9 (fun j -> if i = j then "0" else string_of_int (1 + ((i + j) mod 4))))
         ^ "\n"))

(* Load through the loader, then optionally round-trip through the
   binary format, as [cloudia convert] then [--costs-file x.lat] would. *)
let load ~binary text =
  match Test_failure.load_text text with
  | Ok lat when binary ->
      let path = Filename.temp_file "cloudia-costs" ".lat" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          Cloudia.Matrix_io.save_binary path lat;
          Cloudia.Matrix_io.load path)
  | r -> r

let test_entry_points_agree () =
  let cases =
    [
      ("nan cell, csv", matrix4 ~cell12:"nan" (), false, "ring 4", Cloudia.Cost.Longest_link, [ "LAT007" ]);
      ("nan cell, lat", matrix4 ~cell12:"nan" (), true, "ring 4", Cloudia.Cost.Longest_link, [ "LAT007" ]);
      ("inf cell, csv", matrix4 ~cell12:"inf" (), false, "ring 4", Cloudia.Cost.Longest_link, [ "LAT002" ]);
      ("-inf cell, lat", matrix4 ~cell12:"-inf" (), true, "ring 4", Cloudia.Cost.Longest_link, [ "LAT002" ]);
      ("nonzero diagonal", matrix4 ~diag0:"1" (), false, "ring 4", Cloudia.Cost.Longest_link, [ "LAT004" ]);
      ("negative entry", matrix4 ~cell01:"-1" (), false, "ring 4", Cloudia.Cost.Longest_link, [ "LAT003" ]);
      ("ragged csv", "0, 1\n1\n", false, "ring 3", Cloudia.Cost.Longest_link, [ "LAT001" ]);
      ("ring 3 under lp", matrix4 (), false, "ring 3", Cloudia.Cost.Longest_path, [ "GRF005" ]);
      ("ring 12 on 9 instances", matrix9, false, "ring 12", Cloudia.Cost.Longest_link, [ "GRF006" ]);
    ]
  in
  with_server "gate" @@ fun sock ->
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  List.iter
    (fun (name, text, binary, spec, objective, expected) ->
      let check path got = Alcotest.(check (list string)) (name ^ ": " ^ path) expected got in
      let graph = Result.get_ok (Graphs.Graph_io.parse_spec spec) in
      match load ~binary text with
      | Error (`Msg e) -> Alcotest.fail (name ^ ": " ^ e)
      | Error (`Lint ds) ->
          (* No square matrix to send: every entry point refuses it
             locally, with the loader's finding. *)
          check "loader" (codes ds)
      | Ok lat ->
          (* The step [cloudia plan] runs, which refuses with the
             gate's errors. *)
          check "plan"
            (match
               Cloudia.Advisor.solve ~full:false (Prng.create 1) Cloudia.Solver.Greedy_g2
                 objective graph lat
             with
            | exception Lint.Diagnostic.Failed ds -> codes (Lint.Diagnostic.errors ds)
            | _ -> []);
          check "lint"
            (codes
               (Lint.Diagnostic.errors
                  (Cloudia.Advisor.gate ~full:true (Some graph) (Some lat) objective
                     (Some Cloudia.Solver.Greedy_g2))));
          (match Serve.Client.advise c (job ~id:name ~objective ~graph ~costs:lat ()) with
          | Serve.Protocol.Failed { message; _ } -> check "daemon" (codes_in message)
          | _ -> Alcotest.fail (name ^ ": the daemon must refuse the job")))
    cases

let test_expired_deadline_rejected () =
  with_server "dl" @@ fun sock ->
  let c = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c) @@ fun () ->
  (* A zero deadline is an invalid field; one nanosecond is valid and
     always over by the time a worker pops the job. *)
  match Serve.Client.advise c (job ~id:"late" ~deadline:1e-9 ()) with
  | Serve.Protocol.Rejected { j_id; reason } ->
      Alcotest.(check string) "id echoed" "late" j_id;
      Alcotest.(check string) "reason" "deadline expired in queue" reason
  | _ -> Alcotest.fail "expected Rejected for an already-expired deadline"

let test_survives_client_disconnect () =
  with_server "dc" @@ fun sock ->
  let c1 = Serve.Client.connect sock in
  Fun.protect ~finally:(fun () -> Serve.Client.close c1) @@ fun () ->
  let r1 = advise_result c1 (job ~id:"keep" ()) in
  Alcotest.(check bool) "first solve cold" false r1.r_cached;
  (* Second client fires a job and hangs up before the reply. *)
  let c2 = Serve.Client.connect sock in
  Serve.Protocol.send_request (Serve.Client.raw_fd c2)
    (Serve.Protocol.Advise
       (job ~id:"orphan" ~solver:Serve.Protocol.Anneal ~seed:9 ~max_moves:2000 ()));
  Serve.Client.close c2;
  (* The daemon absorbs the dead connection and keeps serving, caches
     intact. *)
  Serve.Client.ping c1;
  let r2 = advise_result c1 (job ~id:"keep-again" ()) in
  Alcotest.(check bool) "cache intact after disconnect" true r2.r_cached;
  check_bits "same answer" r1.r_cost r2.r_cost

let suite =
  [
    Alcotest.test_case "request roundtrip" `Quick test_request_roundtrip;
    Alcotest.test_case "request optionals absent" `Quick
      test_request_roundtrip_optionals_absent;
    Alcotest.test_case "control roundtrips" `Quick test_control_roundtrips;
    Alcotest.test_case "reply roundtrips" `Quick test_reply_roundtrips;
    Alcotest.test_case "codec rejects garbage" `Quick test_codec_rejects_garbage;
    Alcotest.test_case "framing roundtrip + EOF" `Quick test_framing_roundtrip_and_eof;
    Alcotest.test_case "framing EOF mid-frame" `Quick test_framing_eof_mid_frame;
    Alcotest.test_case "framing rejects oversized" `Quick test_framing_rejects_oversized;
    Alcotest.test_case "recv rejects malformed json" `Quick test_recv_rejects_malformed_json;
    Alcotest.test_case "large frames reuse buffers" `Quick test_large_frames_reuse_buffers;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    Alcotest.test_case "lru replace" `Quick test_lru_replace_no_eviction;
    Alcotest.test_case "lru mem does not promote" `Quick test_lru_mem_does_not_promote;
    Alcotest.test_case "lru rejects bad capacity" `Quick test_lru_rejects_bad_capacity;
    Alcotest.test_case "backpressure + shutdown drain" `Quick
      test_backpressure_and_shutdown_rejects;
    Alcotest.test_case "end-to-end memo and warm" `Quick test_end_to_end_memo_and_warm;
    Alcotest.test_case "solver failure replied" `Quick test_solver_failure_is_replied;
    Alcotest.test_case "invalid fields failed" `Quick test_invalid_fields_failed;
    Alcotest.test_case "garbage frame answered" `Quick test_garbage_frame_answered;
    Alcotest.test_case "entry points agree" `Quick test_entry_points_agree;
    Alcotest.test_case "expired deadline rejected" `Quick test_expired_deadline_rejected;
    Alcotest.test_case "survives client disconnect" `Quick test_survives_client_disconnect;
  ]
