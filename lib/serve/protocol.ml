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
  | Json.Num s -> (try Json.number s with Failure _ -> fail "bad number %S" s)
  | _ -> fail "expected a number"

let to_int = function
  | Json.Num s -> (try int_of_string s with Failure _ -> fail "bad integer %S" s)
  | _ -> fail "expected an integer"

(* [to_int] of a field, naming the field when the value is not an
   integer literal *)
let int_of_field name v = try to_int v with Protocol_error m -> fail "%s: %s" name m

let member_exn name j =
  match Json.member name j with
  | Some v -> v
  | None -> fail "missing field %S" name

let int_field name j = int_of_field name (member_exn name j)

let edge_of_json = function
  | Json.Arr [ (Json.Num _ as u); (Json.Num _ as v) ] -> (to_int u, to_int v)
  | _ -> fail "graph edge must be a [src, dst] pair"

let graph_of_json j =
  let n = int_field "n" j in
  let edges =
    match Json.member "edges" j with
    | Some (Json.Arr es) -> List.map edge_of_json es
    | _ -> fail "graph needs an \"edges\" array"
  in
  try Graphs.Digraph.create ~n edges
  with Invalid_argument m -> fail "bad graph: %s" m

(* NaN marks unsampled pairs in latency matrices; JSON has no NaN literal,
   so entries round-trip as null. Infinities are a different finding
   (LAT002, not LAT007), so they travel as overflowing literals, which
   every IEEE parser reads back as ±inf. [Json.Floats] writes a row that
   way, each cell straight into the frame buffer. *)
let json_of_matrix m =
  let n = Lat_matrix.dim m and data = Lat_matrix.data m in
  let row i =
    let cells = Array.create_float n in
    for j = 0 to n - 1 do
      Array.unsafe_set cells j (Bigarray.Array2.unsafe_get data i j)
    done;
    Json.Floats cells
  in
  Json.Arr (List.init n row)

let matrix_entry = function
  | Json.Null -> Float.nan
  | Json.Num _ as v -> to_float v
  | _ -> fail "matrix entry must be a number or null"

(* Entries are decoded straight into the matrix, row by row: a
   [Json.Floats] row, as the parser reads a row of latencies, is copied;
   an [Arr] row, as it keeps a row of integer literals, is converted cell
   by cell. The matrix is allocated only once every row is known to hold
   [n] cells, so a frame of many short rows cannot make the daemon
   reserve n² floats; when one does not, the first problem in reading
   order is reported, entries before it included. *)
let matrix_of_json j =
  match j with
  | Json.Arr rows ->
      let n = List.length rows in
      let square = function
        | Json.Floats cells -> Array.length cells = n
        | Json.Arr cells -> List.compare_length_with cells n = 0
        | _ -> false
      in
      if not (List.for_all square rows) then
        (* raises at the first bad row, if not before *)
        List.iter
          (function
            | Json.Floats _ as row when square row -> ()
            | Json.Arr cells as row when square row ->
                List.iter (fun c -> ignore (matrix_entry c : float)) cells
            | Json.Arr _ | Json.Floats _ -> fail "matrix must be square"
            | _ -> fail "matrix row must be an array")
          rows;
      let m = Lat_matrix.create n in
      let data = Lat_matrix.data m in
      List.iteri
        (fun i row ->
          match row with
          | Json.Floats cells ->
              for j = 0 to n - 1 do
                Bigarray.Array2.unsafe_set data i j (Array.unsafe_get cells j)
              done
          | Json.Arr cells ->
              List.iteri (fun j c -> Bigarray.Array2.unsafe_set data i j (matrix_entry c)) cells
          | _ -> ())
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

let opt_field conv name j =
  match Json.member name j with
  | None | Some Json.Null -> None
  | Some v -> Some (conv v)

let job_of_json j =
  try
    {
      id = Json.str_field "id" j;
      tenant = Json.str_field "tenant" j;
      seed = int_field "seed" j;
      solver = solver_of_string (Json.str_field "solver" j);
      objective = objective_of_string (Json.str_field "objective" j);
      budget = Json.float_field "budget" j;
      deadline = opt_field to_float "deadline" j;
      max_moves = opt_field (int_of_field "max_moves") "max_moves" j;
      clusters = opt_field (int_of_field "clusters") "clusters" j;
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

(* The parser reads a plan of three or more numbers with a null, a
   fraction or an exponent in it as [Json.Floats], which keeps no
   spelling. It is refused at its first cell that an [Arr] of the same
   literals would be refused at: a null, or a number that is not a whole
   one in [int]'s range, named by its %.17g text. A plan of such whole
   numbers has one spelled with a fraction or an exponent, and is
   refused as such. *)
let plan_refused cells =
  Array.iter
    (fun x ->
      if Float.is_nan x then fail "plan entries must be ints"
      else if not (Float.is_integer x && Float.abs x < 0x1p62) then
        fail "bad integer %S"
          (if Float.is_finite x then Printf.sprintf "%.17g" x
           else if x > 0.0 then "1e999"
           else "-1e999"))
    cells;
  fail "bad integer: written with a fraction or an exponent"

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
        | Json.Floats cells -> plan_refused cells
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

(* Frame buffers. A 77-instance job is a 115 KB frame, and a fresh
   buffer per frame is that much dead memory for the major GC to find;
   the less the codec allocates elsewhere, the later it does (serve-mix's
   peak RSS rose 3 % with a buffer per frame). So one rule serves both
   directions: a frame buffer grows by doubling, and sending and
   receiving each keep one spare. Whoever takes a spare uses it, and a
   concurrent frame starts a fresh buffer of its own ([Json.take] and
   [Json.give_back]). A payload known to be under [small_frame] is read
   into a buffer of its own, in the minor heap. *)
let fresh_size = 1 lsl 16
let small_frame = 2048
let send_spare = Json.spare ()
let recv_spare = Json.spare ()

(* The document is written after the header, in place, and the frame
   goes out as one buffer. *)
let send fd json =
  let buf, stop = Json.write (Json.take send_spare fresh_size) 4 json in
  Fun.protect
    ~finally:(fun () -> Json.give_back send_spare buf)
    (fun () ->
      set_header buf (stop - 4);
      really_write Unix.write fd buf stop)

let send_request fd r = send fd (json_of_request r)
let send_reply fd r = send fd (json_of_reply r)

(* [f] applied to a buffer holding the [len]-byte payload that follows
   a header. Past [small_frame], the buffer starts as the receive spare,
   or a fresh one of at most [fresh_size], and doubles as bytes arrive,
   up to [len]: memory follows the bytes received, not the length a
   header claims. *)
let[@cloudia.hot] with_payload fd len f =
  let small = len < small_frame in
  let buf = ref (if small then Bytes.create len else Json.take recv_spare (min len fresh_size)) in
  let got = ref 0 in
  Fun.protect ~finally:(fun () -> if not small then Json.give_back recv_spare !buf) @@ fun () ->
  while !got < len do
    if !got = Bytes.length !buf then begin
      let bigger = Bytes.create (min len (2 * !got)) in
      Bytes.blit !buf 0 bigger 0 !got;
      buf := bigger
    end;
    let n = min len (Bytes.length !buf) - !got in
    if not (really_read fd !buf !got n) then raise End_of_file;
    got := !got + n
  done;
  f !buf

let read_frame fd =
  Option.map (fun len -> with_payload fd len (fun buf -> Bytes.sub_string buf 0 len)) (read_header fd)

(* The payload is parsed where it was read; the values parsed share no
   bytes with the buffer. *)
let recv_json fd =
  Option.map
    (fun len ->
      with_payload fd len (fun buf ->
          match Json.parse ~len (Bytes.unsafe_to_string buf) with
          | j -> j
          | exception Json.Bad _ -> fail "frame is not valid JSON"))
    (read_header fd)

let request_id j =
  match Option.bind (Json.member "job" j) (Json.member "id") with
  | Some (Json.Str id) -> id
  | _ -> ""

let recv_request fd = Option.map request_of_json (recv_json fd)
let recv_reply fd = Option.map reply_of_json (recv_json fd)
