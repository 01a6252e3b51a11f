(* Wire protocol of the advising daemon: length-prefixed JSON frames over
   a Unix-domain socket. Each frame is a 4-byte big-endian payload length
   followed by one JSON document (a request or a reply). JSON keeps the
   protocol debuggable with a socket dump; the 16 MiB frame cap bounds
   what a client can make the daemon buffer. *)

module Json = Obs.Json

let max_frame_bytes = 16 * 1024 * 1024

exception Protocol_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Protocol_error m)) fmt

type solver = Cp | Anneal | Greedy | Descent

let solver_to_string = function
  | Cp -> "cp"
  | Anneal -> "anneal"
  | Greedy -> "greedy"
  | Descent -> "descent"

let solver_of_string = function
  | "cp" -> Cp
  | "anneal" -> Anneal
  | "greedy" -> Greedy
  | "descent" -> Descent
  | s -> fail "unknown solver %S" s

type job = {
  id : string;
  tenant : string;
  seed : int;
  solver : solver;
  objective : Cloudia.Cost.objective;
  budget : float;
  deadline : float option;
  max_moves : int option;
  clusters : int option;
  graph : Graphs.Digraph.t;
  costs : Lat_matrix.t;
}

type request = Advise of job | Ping | Stats_request

type reply =
  | Result of {
      r_id : string;
      r_plan : int array;
      r_cost : float;
      r_cached : bool;
      r_warm : bool;
      r_fingerprint : string;
      r_latency_ms : float;
    }
  | Rejected of { j_id : string; reason : string }
  | Failed of { j_id : string; message : string }
  | Pong
  | Stats of (string * int) list

(* --- JSON encoding --------------------------------------------------- *)

let objective_of_string s =
  match Cloudia.Cost.objective_of_string s with
  | Some o -> o
  | None -> fail "unknown objective %S" s

let json_of_graph g =
  let edges =
    Graphs.Digraph.edges g |> Array.to_list
    |> List.map (fun (u, v) -> Json.Arr [ Json.of_int u; Json.of_int v ])
  in
  Json.Obj [ ("n", Json.of_int (Graphs.Digraph.n g)); ("edges", Json.Arr edges) ]

let to_float = function
  | Json.Num s -> (try float_of_string s with Failure _ -> fail "bad number %S" s)
  | _ -> fail "expected a number"

let to_int = function
  | Json.Num s -> (try int_of_string s with Failure _ -> fail "bad integer %S" s)
  | _ -> fail "expected an integer"

let graph_of_json j =
  let n = Json.int_field "n" j in
  let edges =
    match Json.member "edges" j with
    | Some (Json.Arr es) ->
        List.map
          (function
            | Json.Arr [ (Json.Num _ as u); (Json.Num _ as v) ] -> (to_int u, to_int v)
            | _ -> fail "graph edge must be a [src, dst] pair")
          es
    | _ -> fail "graph needs an \"edges\" array"
  in
  try Graphs.Digraph.create ~n edges
  with Invalid_argument m -> fail "bad graph: %s" m

(* NaN marks unsampled pairs in latency matrices; JSON has no NaN literal,
   so entries round-trip as null. Infinities are a different finding
   (LAT002, not LAT007), so they travel as overflowing literals, which
   every IEEE parser reads back as ±inf. *)
let json_of_cost c =
  if Float.is_finite c || Float.is_nan c then Json.of_float c
  else Json.Num (if c > 0.0 then "1e999" else "-1e999")

let json_of_matrix m =
  let n = Lat_matrix.dim m and data = Lat_matrix.data m in
  let row i =
    Json.Arr (List.init n (fun j -> json_of_cost (Bigarray.Array2.unsafe_get data i j)))
  in
  Json.Arr (List.init n row)

let matrix_entry = function
  | Json.Null -> Float.nan
  | Json.Num _ as v -> to_float v
  | _ -> fail "matrix entry must be a number or null"

(* Entries are decoded straight into the matrix, row by row. It is
   allocated only once every row is known to hold [n] cells, so a frame
   of many short rows cannot make the daemon reserve n² floats; when one
   does not, the first problem in reading order is reported, entries
   before it included. *)
let matrix_of_json j =
  match j with
  | Json.Arr rows ->
      let n = List.length rows in
      let cells = function
        | Json.Arr cells when List.compare_length_with cells n = 0 -> cells
        | Json.Arr _ -> fail "matrix must be square"
        | _ -> fail "matrix row must be an array"
      in
      let square = function
        | Json.Arr cells -> List.compare_length_with cells n = 0
        | _ -> false
      in
      if not (List.for_all square rows) then
        (* raises at the first bad row, if not before *)
        List.iter
          (fun row -> List.iter (fun c -> ignore (matrix_entry c : float)) (cells row))
          rows;
      let m = Lat_matrix.create n in
      let data = Lat_matrix.data m in
      List.iteri
        (fun i row ->
          List.iteri (fun j c -> Bigarray.Array2.unsafe_set data i j (matrix_entry c)) (cells row))
        rows;
      m
  | _ -> fail "costs must be an array of rows"

let json_of_job job =
  let opt_num f = function None -> Json.Null | Some v -> f v in
  Json.Obj
    [
      ("id", Json.Str job.id);
      ("tenant", Json.Str job.tenant);
      ("seed", Json.of_int job.seed);
      ("solver", Json.Str (solver_to_string job.solver));
      ("objective", Json.Str (Cloudia.Cost.objective_to_string job.objective));
      ("budget", Json.of_float job.budget);
      ("deadline", opt_num Json.of_float job.deadline);
      ("max_moves", opt_num Json.of_int job.max_moves);
      ("clusters", opt_num Json.of_int job.clusters);
      ("graph", json_of_graph job.graph);
      ("costs", json_of_matrix job.costs);
    ]

let member_exn name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let opt_field conv name j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> Some (conv v)

let job_of_json j =
  try
    {
      id = Json.str_field "id" j;
      tenant = Json.str_field "tenant" j;
      seed = Json.int_field "seed" j;
      solver = solver_of_string (Json.str_field "solver" j);
      objective = objective_of_string (Json.str_field "objective" j);
      budget = Json.float_field "budget" j;
      deadline = opt_field to_float "deadline" j;
      max_moves = opt_field to_int "max_moves" j;
      clusters = opt_field to_int "clusters" j;
      graph = graph_of_json (member_exn "graph" j);
      costs = matrix_of_json (member_exn "costs" j);
    }
  with Json.Bad m -> fail "bad job: %s" m

let json_of_request = function
  | Advise job -> Json.Obj [ ("type", Json.Str "advise"); ("job", json_of_job job) ]
  | Ping -> Json.Obj [ ("type", Json.Str "ping") ]
  | Stats_request -> Json.Obj [ ("type", Json.Str "stats") ]

let request_of_json j =
  match Json.str_field "type" j with
  | "advise" -> Advise (job_of_json (member_exn "job" j))
  | "ping" -> Ping
  | "stats" -> Stats_request
  | t -> fail "unknown request type %S" t
  | exception Json.Bad m -> fail "bad request: %s" m

let json_of_reply = function
  | Result r ->
      Json.Obj
        [
          ("type", Json.Str "result");
          ("id", Json.Str r.r_id);
          ("plan", Json.Arr (Array.to_list (Array.map Json.of_int r.r_plan)));
          ("cost", Json.of_float r.r_cost);
          ("cached", Json.Bool r.r_cached);
          ("warm", Json.Bool r.r_warm);
          ("fingerprint", Json.Str r.r_fingerprint);
          ("latency_ms", Json.of_float r.r_latency_ms);
        ]
  | Rejected r ->
      Json.Obj
        [ ("type", Json.Str "rejected"); ("id", Json.Str r.j_id); ("reason", Json.Str r.reason) ]
  | Failed r ->
      Json.Obj
        [ ("type", Json.Str "failed"); ("id", Json.Str r.j_id); ("message", Json.Str r.message) ]
  | Pong -> Json.Obj [ ("type", Json.Str "pong") ]
  | Stats kvs ->
      Json.Obj
        [
          ("type", Json.Str "stats");
          ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.of_int v)) kvs));
        ]

let reply_of_json j =
  match Json.str_field "type" j with
  | "result" ->
      let plan =
        match member_exn "plan" j with
        | Json.Arr cells ->
            Array.of_list
              (List.map
                 (function Json.Num _ as v -> to_int v | _ -> fail "plan entries must be ints")
                 cells)
        | _ -> fail "plan must be an array"
      in
      Result
        {
          r_id = Json.str_field "id" j;
          r_plan = plan;
          r_cost = Json.float_field "cost" j;
          r_cached = (match Json.member "cached" j with Some (Json.Bool b) -> b | _ -> false);
          r_warm = (match Json.member "warm" j with Some (Json.Bool b) -> b | _ -> false);
          r_fingerprint = Json.str_field "fingerprint" j;
          r_latency_ms = Json.float_field "latency_ms" j;
        }
  | "rejected" ->
      Rejected { j_id = Json.str_field "id" j; reason = Json.str_field "reason" j }
  | "failed" -> Failed { j_id = Json.str_field "id" j; message = Json.str_field "message" j }
  | "pong" -> Pong
  | "stats" -> (
      match member_exn "counters" j with
      | Json.Obj kvs ->
          Stats
            (List.map
               (fun (k, v) ->
                 match v with
                 | Json.Num _ -> (k, to_int v)
                 | _ -> fail "stats values must be ints")
               kvs)
      | _ -> fail "counters must be an object")
  | t -> fail "unknown reply type %S" t
  | exception Json.Bad m -> fail "bad reply: %s" m

(* --- Framing --------------------------------------------------------- *)

(* Writes [len] bytes of [buf] with [write] ([Unix.write] or
   [Unix.write_substring]). *)
let really_write write fd buf len =
  let off = ref 0 in
  while !off < len do
    off := !off + write fd buf !off (len - !off)
  done

(* Reads exactly [len] bytes. Returns false on EOF at offset 0 (a clean
   close between frames); raises [End_of_file] on EOF mid-read. *)
let really_read fd buf off len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    let n = Unix.read fd buf (off + !got) (len - !got) in
    if n = 0 then
      if !got = 0 then eof := true else raise End_of_file
    else got := !got + n
  done;
  not !eof

(* The 4-byte big-endian length of a [len]-byte payload, at [buf.[0..3]]. *)
let set_header buf len =
  if len > max_frame_bytes then fail "frame too large: %d bytes" len;
  Bytes.set_int32_be buf 0 (Int32.of_int len)

(* The payload length of the next frame; [None] on a clean close. *)
let read_header fd =
  let header = Bytes.create 4 in
  if not (really_read fd header 0 4) then None
  else
    let len = Int32.to_int (Bytes.get_int32_be header 0) land 0xffff_ffff in
    if len > max_frame_bytes then fail "frame too large: %d bytes" len;
    Some len

let write_frame fd payload =
  let header = Bytes.create 4 in
  set_header header (String.length payload);
  really_write Unix.write fd header 4;
  really_write Unix.write_substring fd payload (String.length payload)

let read_frame fd =
  match read_header fd with
  | None -> None
  | Some len ->
      let payload = Bytes.create len in
      if len > 0 && not (really_read fd payload 0 len) then raise End_of_file;
      Some (Bytes.unsafe_to_string payload)

(* Frame buffers. A 77-instance job is a 115 KB frame, and a fresh
   buffer per frame is that much dead memory for the major GC to find;
   the less the codec allocates elsewhere, the later it does (serve-mix's
   peak RSS rose 3 % with a buffer per frame). So sending and receiving
   each keep one spare buffer for large frames. Whoever takes it uses
   it; a concurrent second frame gets a buffer of its own. A spare grows
   to the largest frame seen, up to [spare_limit]. Frames small enough
   for the minor heap, where a dead buffer costs nothing, always get
   their own. *)
let spare_limit = 1 lsl 20
let small_frame = 2048
let send_spare = Atomic.make Bytes.empty
let recv_spare = Atomic.make Bytes.empty

let with_buffer spare len f =
  if len < small_frame then f (Bytes.create len)
  else begin
    let taken = Atomic.exchange spare Bytes.empty in
    let b = if Bytes.length taken >= len then taken else Bytes.create len in
    Fun.protect
      ~finally:(fun () -> if Bytes.length b <= spare_limit then Atomic.set spare b)
      (fun () -> f b)
  end

(* The document is written after the header, in place, and the frame
   goes out as one buffer. *)
let send fd json =
  let len = Json.length json in
  if len > max_frame_bytes then fail "frame too large: %d bytes" len;
  with_buffer send_spare (4 + len) (fun buf ->
      set_header buf len;
      ignore (Json.write buf 4 json : int);
      really_write Unix.write fd buf (4 + len))

let send_request fd r = send fd (json_of_request r)
let send_reply fd r = send fd (json_of_reply r)

(* The payload is parsed where it was read; the values parsed share no
   bytes with the buffer. *)
let recv_json fd =
  match read_header fd with
  | None -> None
  | Some len ->
      with_buffer recv_spare len (fun buf ->
          if len > 0 && not (really_read fd buf 0 len) then raise End_of_file;
          match Json.parse ~len (Bytes.unsafe_to_string buf) with
          | j -> Some j
          | exception Json.Bad _ -> fail "frame is not valid JSON")

let recv_request fd = Option.map request_of_json (recv_json fd)
let recv_reply fd = Option.map reply_of_json (recv_json fd)
