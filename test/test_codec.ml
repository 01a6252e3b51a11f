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

(* Random documents: the writer's bytes equal the reference writer's. *)
let test_writer_matches_reference () =
  let rng = Random.State.make [| 11 |] in
  let str () =
    String.init (Random.State.int rng 6) (fun _ -> Char.chr (Random.State.int rng 128))
  in
  let rec value depth =
    match Random.State.int rng (if depth = 0 then 5 else 7) with
    | 0 -> Json.Null
    | 1 -> Json.Bool (Random.State.bool rng)
    | 2 -> Json.of_float (Random.State.float rng 1e4 -. 5e3)
    | 3 -> Json.of_int (Random.State.int rng 1000 - 500)
    | 4 -> Json.Str (str ())
    | 5 -> Json.Arr (List.init (Random.State.int rng 4) (fun _ -> value (depth - 1)))
    | _ -> Json.Obj (List.init (Random.State.int rng 4) (fun _ -> (str (), value (depth - 1))))
  in
  for _ = 1 to 5_000 do
    let v = value 4 in
    let text = Json.to_string v in
    Alcotest.(check string) "to_string" (Ref.Json.to_string v) text;
    let len = Json.length v in
    Alcotest.(check int) "length" (String.length text) len;
    let b = Bytes.make (len + 4) '#' in
    Alcotest.(check int) "write end" (len + 3) (Json.write b 3 v);
    Alcotest.(check string) "write" ("###" ^ text ^ "#") (Bytes.to_string b);
    match Json.write (Bytes.create (len + 2)) 3 v with
    | _ -> Alcotest.fail "write past the end"
    | exception Invalid_argument _ -> ()
  done

(* ---------- allocation ---------- *)

(* A serve-mix-sized job: 77 instances of latencies with 17 significant
   digits. Encoding and decoding it once cost 395 k and 455 k minor words
   with the reference codec; the gate is a third of their sum. *)
let test_codec_allocation () =
  let rng = Random.State.make [| 77 |] in
  let costs =
    Lat_matrix.init 77 (fun i j -> if i = j then 0.0 else 0.2 +. Random.State.float rng 1.8)
  in
  let mesh = Graphs.Templates.mesh2d ~rows:8 ~cols:8 in
  let req = Serve.Protocol.Advise { (job costs) with graph = mesh } in
  let round () =
    let text = Json.to_string (Serve.Protocol.json_of_request req) in
    ignore (Serve.Protocol.request_of_json (Json.parse text) : Serve.Protocol.request)
  in
  round ();
  let before = Gc.minor_words () in
  round ();
  let words = Gc.minor_words () -. before in
  if words > 850_000.0 /. 3.0 then
    Alcotest.failf "encode + decode of a 77x77 job: %.0f minor words, over the %.0f gate" words
      (850_000.0 /. 3.0)

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
  ]
