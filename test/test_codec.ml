(* Differential tests of the wire codec against test/codec_reference, the
   sprintf printer, option-peeking parser and list-based matrix decoder
   it replaced: the same float text, the same accepted numbers, the same
   errors on damaged frames, bit-identical matrix round trips and
   byte-identical frames; and an allocation gate on a daemon-sized job. *)

module Json = Obs.Json
module Ref = Codec_reference

let num_text = function Json.Num s -> s | Json.Null -> "null" | _ -> "?"

let check_float x =
  let got = num_text (Json.of_float x) and want = num_text (Ref.Json.of_float x) in
  if got <> want then Alcotest.failf "of_float %h: got %s, sprintf gives %s" x got want

(* ---------- %.17g ---------- *)

(* Random doubles: a quarter are raw bit patterns (every binade, NaN and
   infinities included), the rest have a uniform exponent over 2^-24 ..
   2^56, the binades around the fast path's range, and a random
   mantissa. *)
let test_of_float_random () =
  let rng = Random.State.make [| 20_121_008 |] in
  for i = 1 to 1_048_576 do
    let bits = Random.State.bits64 rng in
    let x =
      if i land 3 = 0 then Int64.float_of_bits bits
      else
        let mantissa = Int64.logand bits 0xfffffffffffffL in
        let m = Int64.float_of_bits (Int64.logor 0x3ff0000000000000L mantissa) in
        let x = Float.ldexp m (Random.State.int rng 81 - 24) in
        if Int64.logand bits Int64.min_int <> 0L then -.x else x
    in
    check_float x
  done

(* 10^e just below, at and above, for every e the fast path can meet. *)
let near_powers_of_ten () =
  List.concat_map
    (fun e ->
      let p = Float.of_string (Printf.sprintf "1e%d" e) in
      let rec walk f x k = if k = 0 then [] else x :: walk f (f x) (k - 1) in
      walk Float.pred p 4 @ walk Float.succ (Float.succ p) 3)
    (List.init 26 (fun k -> k - 8))

(* Exact ties at the 17th digit: an 18-digit expansion ending in 5, e.g.
   a 16-digit integer plus a quarter. %.17g rounds them half-even. *)
let ties () =
  List.concat_map
    (fun (base, fracs) -> List.concat_map (fun f -> [ base +. f; -.(base +. f) ]) fracs)
    [
      (1234567890123456.0, [ 0.25; 0.75 ]);
      (9007199254740990.0, [ 0.5 ]);
      (4503599627370495.0, [ 0.5 ]);
      (123456789012345.0, [ 0.125; 0.375; 0.625; 0.875 ]);
      (12345678901234.0, [ 0.0625; 0.1875; 0.9375 ]);
      (1000000000000000.0, [ 0.25; 0.75 ]);
      (9999999999999998.0, [ 0.0; 1.0 ]);
    ]

let test_of_float_edges () =
  let specials =
    [
      0.0; -0.0; 1.0; -1.0; 0.1; 0.5; 1.5; 2.5; 600.0; 1e-6; 1e-5; 1e-4; 1e15; 1e16;
      Float.pred 1e16; Float.succ 1e16; 9007199254740992.0 (* 2^53 *); 9007199254740993.0;
      Float.pred 9007199254740992.0; Float.succ 9007199254740992.0; Float.pred 1e-6;
      Float.succ 1e-6; Float.max_float; -.Float.max_float; Float.min_float;
      Float.pred Float.min_float; Int64.float_of_bits 1L; -.Int64.float_of_bits 1L;
      Int64.float_of_bits 0x000fffffffffffffL; Float.epsilon; 0.99999999999999994;
      0.30000000000000004; 123456.789; 0.1 +. 0.2; 1.0 /. 3.0; 2.0 /. 3.0; 1e22; 1e23;
      Float.nan; Float.infinity; Float.neg_infinity;
    ]
  in
  List.iter check_float (specials @ near_powers_of_ten () @ ties ())

(* ---------- number scanner ---------- *)

(* Every run of up to 5 characters from [0-9+-.eE], 813,615 strings:
   [parse] must return it as one number exactly when
   [float_of_string_opt] accepts it, and raise the reference parser's
   message otherwise. *)
let test_number_language () =
  let alphabet = "0123456789+-.eE" in
  let k = String.length alphabet in
  let buf = Bytes.create 5 in
  let rec gen len pos =
    if pos = len then begin
      let s = Bytes.sub_string buf 0 len in
      let accepted =
        match Json.parse s with Json.Num r -> r = s | _ -> false | exception Json.Bad _ -> false
      in
      if accepted <> Option.is_some (float_of_string_opt s) then
        Alcotest.failf "%S: parse %s, float_of_string_opt %s" s
          (if accepted then "accepts" else "rejects")
          (if accepted then "rejects" else "accepts");
      if not accepted then begin
        let message parse = match parse s with _ -> "parsed" | exception Json.Bad m -> m in
        let got = message Json.parse and want = message Ref.Json.parse in
        if got <> want then Alcotest.failf "%S: %s, reference: %s" s got want
      end
    end
    else
      for c = 0 to k - 1 do
        Bytes.set buf pos alphabet.[c];
        gen len (pos + 1)
      done
  in
  for len = 1 to 5 do
    gen len 0
  done

(* ---------- damaged frames ---------- *)

let golden_frame () =
  let text = In_channel.with_open_bin "golden/advise-request.frame" In_channel.input_all in
  String.sub text 4 (String.length text - 4)

type outcome = Decoded of Serve.Protocol.request | Bad of string | Protocol of string

let decode parse payload =
  match Serve.Protocol.request_of_json (parse payload) with
  | r -> Decoded r
  | exception Json.Bad m -> Bad m
  | exception Serve.Protocol.Protocol_error m -> Protocol m

(* Jobs compare field by field; matrices bit for bit (NaN is never [=]). *)
let same_request a b =
  let blank = Lat_matrix.create 0 and empty = Graphs.Digraph.create ~n:0 [] in
  match (a, b) with
  | Serve.Protocol.Advise x, Serve.Protocol.Advise y ->
      Lat_matrix.equal x.costs y.costs
      && Graphs.Digraph.n x.graph = Graphs.Digraph.n y.graph
      && Graphs.Digraph.edges x.graph = Graphs.Digraph.edges y.graph
      && { x with costs = blank; graph = empty } = { y with costs = blank; graph = empty }
  | a, b -> a = b

let describe = function
  | Decoded _ -> "decoded"
  | Bad m -> "Json.Bad " ^ m
  | Protocol m -> "Protocol_error " ^ m

(* Both matrix decoders on one subtree: the same matrix bit for bit, or
   the same Protocol_error. *)
let check_matrix_decoders tree =
  let run decode =
    match decode tree with m -> Ok m | exception Serve.Protocol.Protocol_error e -> Error e
  in
  match (run Serve.Protocol.matrix_of_json, run Ref.Matrix.of_json) with
  | Ok m, Ok m' -> if not (Lat_matrix.equal m m') then Alcotest.fail "matrix decoders disagree"
  | Error e, Error e' -> Alcotest.(check string) "matrix error" e' e
  | Error e, Ok _ -> Alcotest.failf "the codec's matrix decoder failed alone: %s" e
  | Ok _, Error e -> Alcotest.failf "the reference matrix decoder failed alone: %s" e

let mutation_bytes = "0123456789-+.eE,:[]{}\"\\ntufl \x00\xff"

(* 20,000 damaged copies of the golden advise frame, 1–3 byte edits
   each (replace, delete or insert; bytes biased towards JSON syntax):
   the codec and the reference give the same outcome, message included;
   both matrix decoders agree on the costs subtree whenever it parses. *)
let test_mutated_frames () =
  let frame = golden_frame () in
  Alcotest.(check bool) "golden frame decodes" true
    (match decode Json.parse frame with Decoded _ -> true | _ -> false);
  let rng = Random.State.make [| 97 |] in
  let pick () =
    if Random.State.int rng 4 = 0 then Char.chr (Random.State.int rng 256)
    else mutation_bytes.[Random.State.int rng (String.length mutation_bytes)]
  in
  let mutate s =
    let b = Buffer.create (String.length s + 4) in
    let s = ref s in
    for _ = 1 to 1 + Random.State.int rng 3 do
      let t = !s in
      let i = Random.State.int rng (String.length t) in
      Buffer.clear b;
      Buffer.add_string b (String.sub t 0 i);
      (match Random.State.int rng 3 with
      | 0 ->
          Buffer.add_char b (pick ());
          Buffer.add_string b (String.sub t (i + 1) (String.length t - i - 1))
      | 1 -> Buffer.add_string b (String.sub t (i + 1) (String.length t - i - 1))
      | _ ->
          Buffer.add_char b (pick ());
          Buffer.add_string b (String.sub t i (String.length t - i)));
      s := Buffer.contents b
    done;
    !s
  in
  let outcomes = Hashtbl.create 8 in
  for _ = 1 to 20_000 do
    let damaged = mutate frame in
    let got = decode Json.parse damaged and want = decode Ref.Json.parse damaged in
    let same =
      match (got, want) with
      | Decoded a, Decoded b -> same_request a b
      | a, b -> a = b
    in
    if not same then
      Alcotest.failf "%S:\n  codec: %s\n  reference: %s" damaged (describe got) (describe want);
    Hashtbl.replace outcomes
      (match got with Decoded _ -> 0 | Bad _ -> 1 | Protocol _ -> 2)
      ();
    match Json.parse damaged with
    | tree -> (
        match Option.bind (Json.member "job" tree) (Json.member "costs") with
        | Some costs -> check_matrix_decoders costs
        | None -> ())
    | exception Json.Bad _ -> ()
  done;
  Alcotest.(check int) "all three outcomes seen" 3 (Hashtbl.length outcomes)

let test_matrix_errors_in_order () =
  let j = Json.parse in
  List.iter check_matrix_decoders
    [
      j "7"; j "[]"; j "[[]]"; j "[[1]]"; j "[[1,2]]"; j "[[1,2],[3]]"; j "[[1,\"x\"],[3]]";
      j "[[1,2],5]"; j "[5,[1,2]]"; j "[[null,2],[3,true]]"; j "[[1],[2],[3]]";
      j "[[1e999,-1e999],[-0,4.9406564584124654e-324]]";
      Json.Arr [ Json.Arr [ Json.Num "x" ] ];
      Json.Arr [ Json.Arr [ Json.Num "1"; Json.Num "2" ]; Json.Arr [ Json.Num "1_0"; Json.Null ] ];
    ]

(* ---------- round trips and frame bytes ---------- *)

let random_matrix rng n =
  Lat_matrix.init n (fun i j ->
      if i = j then 0.0
      else
        match Random.State.int rng 40 with
        | 0 -> Float.nan
        | 1 -> Float.infinity
        | 2 -> Float.neg_infinity
        | 3 -> -0.0
        | 4 -> Int64.float_of_bits (Random.State.bits64 rng)
        | _ -> 0.05 +. Random.State.float rng 5.0)

(* The NaN cells must come back as the one NaN [null] decodes to. *)
let canonical m =
  Lat_matrix.init (Lat_matrix.dim m) (fun i j ->
      let v = Lat_matrix.get m i j in
      if Float.is_nan v then Float.nan else v)

let job costs =
  {
    Serve.Protocol.id = "rt";
    tenant = "t";
    seed = 7;
    solver = Serve.Protocol.Anneal;
    objective = Cloudia.Cost.Longest_link;
    budget = 1.5;
    deadline = Some 0.25;
    max_moves = Some 100;
    clusters = None;
    graph = Graphs.Digraph.create ~n:1 [];
    costs;
  }

(* The reference codec's frame text: the same document with its costs
   written by the reference encoder, all of it by the reference
   writer. *)
let reference_text req =
  match Serve.Protocol.json_of_request req with
  | Json.Obj [ t; ("job", Json.Obj fields) ] ->
      let costs = match req with Serve.Protocol.Advise j -> j.costs | _ -> assert false in
      Ref.Json.to_string
        (Json.Obj
           [
             t;
             ( "job",
               Json.Obj
                 (List.map
                    (fun (k, v) -> if k = "costs" then (k, Ref.Matrix.to_json costs) else (k, v))
                    fields) );
           ])
  | _ -> Alcotest.fail "unexpected request shape"

let test_matrix_roundtrip () =
  let rng = Random.State.make [| 5 |] in
  for n = 1 to 80 do
    let m = canonical (random_matrix rng n) in
    let req = Serve.Protocol.Advise (job m) in
    let text = Json.to_string (Serve.Protocol.json_of_request req) in
    Alcotest.(check string) (Printf.sprintf "n=%d frame bytes" n) (reference_text req) text;
    match Serve.Protocol.request_of_json (Json.parse text) with
    | Serve.Protocol.Advise back ->
        if not (Lat_matrix.equal m back.costs) then Alcotest.failf "n=%d: matrix changed" n;
        Alcotest.(check int64) (Printf.sprintf "n=%d fingerprint" n) (Lat_matrix.fingerprint m)
          (Lat_matrix.fingerprint back.costs)
    | _ -> Alcotest.fail "not an advise"
  done

(* Random documents: the writer's bytes equal the reference writer's,
   and written after a 3-byte prefix into a buffer with 1 byte of room,
   exactly enough room, or 32 bytes more, the text is the same and the
   prefix is kept, in [b] or in the larger copy the writer grew. [Floats]
   rows mix NaN, ±infinity, ±0, the fast path's 1e-6 .. 1e16 and raw bit
   patterns. *)
let test_writer_matches_reference () =
  let rng = Random.State.make [| 11 |] in
  let str () =
    String.init (Random.State.int rng 6) (fun _ -> Char.chr (Random.State.int rng 128))
  in
  let cell () =
    match Random.State.int rng 8 with
    | 0 -> Float.nan
    | 1 -> if Random.State.bool rng then Float.infinity else Float.neg_infinity
    | 2 -> if Random.State.bool rng then 0.0 else -0.0
    | 3 -> Int64.float_of_bits (Random.State.bits64 rng)
    | _ ->
        let x = Float.pow 10.0 (Random.State.float rng 22.0 -. 6.0) in
        if Random.State.bool rng then x else -.x
  in
  let rec value depth =
    match Random.State.int rng (if depth = 0 then 6 else 8) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool rng)
    | 2 -> Json.of_float (Random.State.float rng 1e4 -. 5e3)
    | 3 -> Json.of_int (Random.State.int rng 1000 - 500)
    | 4 -> Json.Str (str ())
    | 5 -> Json.Floats (Array.init (Random.State.int rng 5) (fun _ -> cell ()))
    | 6 -> Json.Arr (List.init (Random.State.int rng 4) (fun _ -> value (depth - 1)))
    | _ -> Json.Obj (List.init (Random.State.int rng 4) (fun _ -> (str (), value (depth - 1))))
  in
  for _ = 1 to 5_000 do
    let v = value 4 in
    let text = Json.to_string v in
    Alcotest.(check string) "to_string" (Ref.Json.to_string v) text;
    let len = String.length text in
    List.iter
      (fun room ->
        let b, stop = Json.write (Bytes.make (3 + room) '#') 3 v in
        Alcotest.(check int) (Printf.sprintf "write end, room %d" room) (len + 3) stop;
        Alcotest.(check string)
          (Printf.sprintf "write, room %d" room)
          ("###" ^ text) (Bytes.sub_string b 0 stop))
      [ 1; len; len + 32 ]
  done;
  match Json.write (Bytes.create 2) 3 Json.Null with
  | _ -> Alcotest.fail "write from an offset past the buffer"
  | exception Invalid_argument _ -> ()

(* ---------- allocation ---------- *)

(* The words allocated so far, counted exactly. Blocks too large for
   the minor heap reach [major_words] only at the next major slice,
   which may fall after the span measured, so one is run first, after a
   minor collection; the words that collection promotes are counted
   once. *)
let allocated_words () =
  Gc.minor ();
  ignore (Gc.major_slice 0 : int);
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* A serve-mix-sized job: an 8x8 mesh over 77 instances of latencies
   with 17 significant digits. *)
let serve_mix_job seed =
  let rng = Random.State.make [| seed |] in
  let costs =
    Lat_matrix.init 77 (fun i j -> if i = j then 0.0 else 0.2 +. Random.State.float rng 1.8)
  in
  { (job costs) with graph = Graphs.Templates.mesh2d ~rows:8 ~cols:8 }

(* The job, sent and received over a socket pair the way the client and
   the daemon do. The reference codec allocated 395 k and 455 k minor
   words to encode and decode it. The send/recv round now measures 29.8 k
   words, none per matrix cell: one float array per matrix row each way
   (12.6 k), the graph's 224 edges as JSON each way, and 1.4 k for
   [Digraph.create]'s adjacency. The frame buffers are reused. *)
let test_codec_allocation () =
  let job = serve_mix_job 77 in
  let costs = job.costs and req = Serve.Protocol.Advise job in
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect ~finally:(fun () -> Unix.close a; Unix.close b) @@ fun () ->
  (* the 118 KB frame must fit the socket's buffers before it is read *)
  Unix.setsockopt_int a Unix.SO_SNDBUF (1 lsl 20);
  Unix.setsockopt_int b Unix.SO_RCVBUF (1 lsl 20);
  let round () =
    Serve.Protocol.send_request a req;
    match Serve.Protocol.recv_request b with
    | Some (Serve.Protocol.Advise back) ->
        if not (Lat_matrix.equal back.costs costs) then Alcotest.fail "matrix changed"
    | _ -> Alcotest.fail "expected the advise request back"
  in
  round ();
  let before = allocated_words () in
  round ();
  let words = allocated_words () -. before in
  let gate = 30_000.0 in
  if words > gate then
    Alcotest.failf "send + recv of a 77x77 job: %.0f words, over the %.0f gate" words gate

let serve_mix_document seed =
  Serve.Protocol.json_of_request (Serve.Protocol.Advise (serve_mix_job seed))

(* A warm [to_string] writes into its spare buffer and allocates about
   the string it returns (115 KB, 14.4 k of its 14.9 k words). Growing a fresh buffer
   from 256 bytes by doubling allocated 47.3 k. *)
let test_to_string_allocation () =
  let doc = serve_mix_document 77 in
  let text = Json.to_string doc in
  let before = allocated_words () in
  let again = Json.to_string doc in
  let words = allocated_words () -. before in
  Alcotest.(check string) "same text" text again;
  if String.length text < 100_000 then Alcotest.failf "a %d-byte document" (String.length text);
  let gate = 16_000.0 in
  if words > gate then
    Alcotest.failf "to_string of a %d-byte document: %.0f words, over the %.0f gate"
      (String.length text) words gate

(* Two domains share [to_string]'s spare: each writes its own document
   200 times, and every text must equal the one written alone. A buffer
   given back while still read, or taken by two writers at once, mixes
   the texts. *)
let test_to_string_two_domains () =
  let docs = [| serve_mix_document 1; serve_mix_document 2 |] in
  let texts = Array.map Json.to_string docs in
  let worker k () =
    let bad = ref 0 in
    for _ = 1 to 200 do
      if Json.to_string docs.(k) <> texts.(k) then incr bad
    done;
    !bad
  in
  let other = Domain.spawn (worker 1) in
  let here = worker 0 () in
  let there = Domain.join other in
  Alcotest.(check (pair int int)) "texts that differ from the one written alone" (0, 0)
    (here, there)

(* ---------- the decimal reader ---------- *)

let bits = Int64.bits_of_float

(* [Json.number] is [float_of_string] bit for bit, exceptions included;
   whatever [Json.read_exact] decides without it agrees too. Returns
   whether the exact paths decided [s]. *)
let check_number s =
  let want = float_of_string_opt s in
  (match (Json.number s, want) with
  | v, Some w ->
      if bits v <> bits w then Alcotest.failf "number %S: %h, float_of_string %h" s v w
  | v, None -> Alcotest.failf "number %S: %h, float_of_string fails" s v
  | exception Failure _ -> (
      match want with
      | None -> ()
      | Some w -> Alcotest.failf "number %S fails, float_of_string %h" s w));
  match (Json.read_exact s, want) with
  | Some v, Some w ->
      if bits v <> bits w then Alcotest.failf "read_exact %S: %h, float_of_string %h" s v w;
      true
  | Some v, None -> Alcotest.failf "read_exact %S: %h, float_of_string fails" s v
  | None, _ -> false

(* 1 M doubles drawn as in [test_of_float_random], each printed with
   %.17g and with %.Pg for a P in 1..16 cycling: almost every one is
   decided without [float_of_string]. *)
let test_reader_random () =
  let rng = Random.State.make [| 2021 |] in
  let decided = ref 0 in
  for i = 1 to 1_048_576 do
    let bits = Random.State.bits64 rng in
    let x =
      if i land 3 = 0 then Int64.float_of_bits bits
      else
        let mantissa = Int64.logand bits 0xfffffffffffffL in
        let m = Int64.float_of_bits (Int64.logor 0x3ff0000000000000L mantissa) in
        let x = Float.ldexp m (Random.State.int rng 81 - 24) in
        if Int64.logand bits Int64.min_int <> 0L then -.x else x
    in
    if check_number (Printf.sprintf "%.17g" x) then incr decided;
    if check_number (Printf.sprintf "%.*g" (1 + (i mod 16)) x) then incr decided
  done;
  if !decided < 2 * 1_000_000 then
    Alcotest.failf "the exact paths decided %d of 2097152 literals" !decided

(* Every string of up to 5 characters from [0-9+-.eE], as in
   [test_number_language]. *)
let test_reader_number_language () =
  let alphabet = "0123456789+-.eE" in
  let buf = Bytes.create 5 in
  let rec gen len pos =
    if pos = len then ignore (check_number (Bytes.sub_string buf 0 len) : bool)
    else
      String.iter
        (fun ch ->
          Bytes.set buf pos ch;
          gen len (pos + 1))
        alphabet
  in
  for len = 1 to 5 do
    gen len 0
  done

(* The decimal spelling of the midpoint between the normal double
   [d] < 2^61 and the next one up, every digit of it. *)
let midpoint_text d =
  let m, e = Float.frexp d in
  (* d = mant * 2^(e - 53) with mant a 53-bit integer; the midpoint is
     (2 mant + 1) * 2^(e - 54) *)
  let mant = Int64.of_float (Float.ldexp m 53) in
  let num = Int64.add (Int64.mul 2L mant) 1L and shift = e - 54 in
  if shift >= 0 then (* d < 2^61 here, so the midpoint is an int64 *)
    Int64.to_string (Int64.shift_left num shift)
  else
    (* num / 2^-shift = num * 5^-shift / 10^-shift: exact in decimal *)
    let k = -shift in
    let digits = ref (Int64.to_string num) in
    for _ = 1 to k do
      (* multiply the decimal string by 5 *)
      let carry = ref 0 in
      let b = Bytes.of_string !digits in
      for j = Bytes.length b - 1 downto 0 do
        let v = ((Char.code (Bytes.get b j) - 48) * 5) + !carry in
        Bytes.set b j (Char.chr (48 + (v mod 10)));
        carry := v / 10
      done;
      digits := (if !carry > 0 then string_of_int !carry else "") ^ Bytes.to_string b
    done;
    let s = !digits in
    let n = String.length s in
    if n > k then String.sub s 0 (n - k) ^ "." ^ String.sub s (n - k) k
    else "0." ^ String.make (k - n) '0' ^ s

let edge_literals =
  [
    (* ties at 2^53: 2^53 + 1 and 2^53 + 3, spelled several ways *)
    "9007199254740993"; "9007199254740995"; "90071992547409930e-1"; "900719925474099.3e1";
    "9007199254740993.000000000000000000000000001"; "9007199254740992.999999999999999999";
    (* 19, 20 and 40 significant digits *)
    "1234567890123456789"; "12345678901234567890"; "1234567890123456789012345678901234567890";
    "0.1000000000000000055511151231257827021181583404541015625";
    "0.10000000000000000555111512312578270211815834045410156250000001";
    (* subnormals, the normal boundary, underflow and overflow *)
    "4.9406564584124654e-324"; "5e-324"; "2.4703282292062327e-324"; "2.4703282292062328e-324";
    "2.2250738585072009e-308"; "2.2250738585072014e-308"; "2.2250738585072011e-308";
    "1e-400"; "-1e-400"; "1.7976931348623157e308"; "1.7976931348623158e308";
    "1.7976931348623159e308"; "1e308"; "1e309"; "1e999"; "-1e999"; "1e-342"; "1e-343";
    "1000000000000000000000e-364";
    (* zeros and the grammar's corners *)
    "-0"; "0"; "+0"; ".5"; "5."; "-.5e-3"; "0e400"; "0.000e-999"; "00000000000000000000001";
    "1e0000000000000000000000000000001"; "1e-99999999999999999999";
    (* outside the grammar: float_of_string decides *)
    "1_000"; "0x1p3"; "nan"; "inf"; " 1"; ""; "1e"; "--1";
  ]

(* An edge table, and the midpoints between 4,000 random pairs of
   adjacent doubles: exact ties, which round to even, and the same
   digits plus a trailing 1, which round up. The exact paths must leave
   every tie to [float_of_string], or get it right. Each path's check
   for a tie meets its own: integer ties of up to 18 digits reach the
   product's halfway test, ties with one or two decimals (2^50..2^53)
   its wide-product test, and long ties from 1 and 2^-20 the agreement
   of the truncated mantissa with its successor. *)
let test_reader_edges () =
  List.iter (fun s -> ignore (check_number s : bool)) edge_literals;
  let rng = Random.State.make [| 53 |] in
  for _ = 1 to 4_000 do
    let d =
      Float.ldexp
        (1.0 +. Random.State.float rng 1.0)
        (match Random.State.int rng 4 with
        | 0 -> 53 + Random.State.int rng 7
        | 1 -> 50 + Random.State.int rng 3
        | 2 -> 0
        | _ -> -20)
    in
    let tie = midpoint_text d in
    ignore (check_number tie : bool);
    ignore (check_number (tie ^ (if String.contains tie '.' then "1" else ".1")) : bool);
    ignore (check_number (tie ^ "e0") : bool)
  done

let suite =
  [
    Alcotest.test_case "of_float = sprintf on 1M doubles" `Quick test_of_float_random;
    Alcotest.test_case "of_float = sprintf on edges" `Quick test_of_float_edges;
    Alcotest.test_case "number language = float_of_string_opt" `Quick test_number_language;
    Alcotest.test_case "mutated frames decode alike" `Quick test_mutated_frames;
    Alcotest.test_case "matrix errors in order" `Quick test_matrix_errors_in_order;
    Alcotest.test_case "matrix roundtrip n=1..80" `Quick test_matrix_roundtrip;
    Alcotest.test_case "writer = reference writer" `Quick test_writer_matches_reference;
    Alcotest.test_case "codec allocation gate" `Quick test_codec_allocation;
    Alcotest.test_case "reader = float_of_string on 2M doubles" `Quick test_reader_random;
    Alcotest.test_case "reader = float_of_string on the number language" `Quick
      test_reader_number_language;
    Alcotest.test_case "reader = float_of_string on edges and ties" `Quick test_reader_edges;
    Alcotest.test_case "to_string allocation gate" `Quick test_to_string_allocation;
    Alcotest.test_case "to_string on two domains" `Quick test_to_string_two_domains;
  ]
