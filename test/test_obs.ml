(* Tests for the observability library: sink gating, span nesting across
   domains, counter atomicity, incumbent-stream monotonicity, and exporter
   well-formedness. The sink and the counter registry are process-global,
   so every test that enables tracing resets and disables it on exit. *)

let with_tracing f =
  Obs.Sink.reset ();
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.reset ())
    f

(* ---- a minimal JSON parser, enough to check exporter output ---- *)

exception Bad_json of string

let parse_json (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Bad_json (Printf.sprintf "%s at %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %c" c)
  in
  let literal word =
    String.iter expect word
  in
  let parse_string () =
    expect '"';
    let continue = ref true in
    while !continue do
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' ->
          advance ();
          continue := false
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
          | Some 'u' ->
              advance ();
              for _ = 1 to 4 do
                match peek () with
                | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
                | _ -> fail "bad \\u escape"
              done
          | _ -> fail "bad escape")
      | Some c when Char.code c < 0x20 -> fail "control char in string"
      | Some _ -> advance ()
    done
  in
  let parse_number () =
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    let start = !pos in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    if !pos = start then fail "expected number";
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some _ -> ()
    | None -> fail "malformed number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then advance ()
        else
          let continue = ref true in
          while !continue do
            skip_ws ();
            parse_string ();
            skip_ws ();
            expect ':';
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some '}' ->
                advance ();
                continue := false
            | _ -> fail "expected , or } in object"
          done
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then advance ()
        else
          let continue = ref true in
          while !continue do
            parse_value ();
            skip_ws ();
            match peek () with
            | Some ',' -> advance ()
            | Some ']' ->
                advance ();
                continue := false
            | _ -> fail "expected , or ] in array"
          done
    | Some '"' -> parse_string ()
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  parse_value ();
  skip_ws ();
  if !pos <> n then fail "trailing garbage"

let export_to_string export events =
  let file = Filename.temp_file "obs_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_text file (fun oc -> export oc events);
      In_channel.with_open_text file In_channel.input_all)

(* ---- sink gating ---- *)

let test_disabled_sink_records_nothing () =
  Obs.Sink.disable ();
  Obs.Sink.reset ();
  Obs.Span.with_ "silent" (fun () -> ());
  Obs.Span.mark "silent-mark";
  let stream = Obs.Incumbent.stream "silent" in
  Alcotest.(check bool) "observe still tracks" true (Obs.Incumbent.observe stream 3.0);
  Alcotest.(check int) "no events buffered" 0 (List.length (Obs.Sink.drain ()));
  (* Counters are always on, independent of the sink. *)
  let c = Obs.Counter.make "test.obs.gated" in
  let before = Obs.Counter.value c in
  Obs.Counter.incr c;
  Alcotest.(check int) "counter counts while disabled" (before + 1) (Obs.Counter.value c)

let test_span_result_passthrough () =
  Alcotest.(check int) "disabled" 7 (Obs.Span.with_ "x" (fun () -> 7));
  with_tracing (fun () ->
      Alcotest.(check int) "enabled" 9 (Obs.Span.with_ "x" (fun () -> 9)))

(* ---- span nesting and ordering ---- *)

let test_span_nesting_single_domain () =
  with_tracing (fun () ->
      Obs.Span.with_ "outer" (fun () ->
          Obs.Span.with_ "inner" (fun () -> ());
          Obs.Span.mark "between";
          Obs.Span.with_ "inner2" (fun () -> ()));
      let events = Obs.Sink.drain () in
      let names =
        List.map
          (fun (e : Obs.Event.t) ->
            match e.Obs.Event.payload with
            | Obs.Event.Span_begin n -> "B:" ^ n
            | Obs.Event.Span_end n -> "E:" ^ n
            | Obs.Event.Mark n -> "M:" ^ n
            | Obs.Event.Incumbent { stream; _ } -> "I:" ^ stream
            | Obs.Event.Gc_delta { span; _ } -> "G:" ^ span)
          events
      in
      Alcotest.(check (list string)) "well-nested order"
        [ "B:outer"; "B:inner"; "E:inner"; "M:between"; "B:inner2"; "E:inner2"; "E:outer" ]
        names;
      let ts = List.map (fun (e : Obs.Event.t) -> e.Obs.Event.t_ns) events in
      Alcotest.(check bool) "timestamps sorted" true
        (List.for_all2 (fun a b -> Int64.compare a b <= 0)
           (List.filteri (fun i _ -> i < List.length ts - 1) ts)
           (List.tl ts)))

let test_spans_exception_safe () =
  with_tracing (fun () ->
      (try Obs.Span.with_ "raiser" (fun () -> failwith "boom") with Failure _ -> ());
      match Obs.Sink.drain () with
      | [ b; e ] ->
          Alcotest.(check string) "begin" "raiser" (Obs.Event.name b);
          Alcotest.(check string) "end" "raiser" (Obs.Event.name e);
          (match (b.Obs.Event.payload, e.Obs.Event.payload) with
          | Obs.Event.Span_begin _, Obs.Event.Span_end _ -> ()
          | _ -> Alcotest.fail "expected begin then end")
      | evs -> Alcotest.failf "expected 2 events, got %d" (List.length evs))

let test_spans_multiple_domains () =
  with_tracing (fun () ->
      let work tag () =
        for i = 1 to 10 do
          Obs.Span.with_ (Printf.sprintf "%s.%d" tag i) (fun () ->
              Obs.Span.with_ (tag ^ ".child") (fun () -> ()))
        done
      in
      let domains =
        List.map (fun tag -> Domain.spawn (work tag)) [ "a"; "b"; "c" ]
      in
      work "main" ();
      List.iter Domain.join domains;
      let events = Obs.Sink.drain () in
      Alcotest.(check int) "4 domains x 10 spans x 2 levels x begin/end" 160
        (List.length events);
      (* Per domain the event stream must be well-nested, whatever the
         global interleaving. *)
      let by_domain = Hashtbl.create 8 in
      List.iter
        (fun (e : Obs.Event.t) ->
          let stack =
            match Hashtbl.find_opt by_domain e.Obs.Event.domain with
            | Some st -> st
            | None ->
                let st = ref [] in
                Hashtbl.add by_domain e.Obs.Event.domain st;
                st
          in
          match e.Obs.Event.payload with
          | Obs.Event.Span_begin n -> stack := n :: !stack
          | Obs.Event.Span_end n -> (
              match !stack with
              | top :: rest when top = n -> stack := rest
              | _ -> Alcotest.failf "unbalanced span end %s" n)
          | _ -> ())
        events;
      Alcotest.(check int) "4 distinct domains" 4 (Hashtbl.length by_domain);
      Hashtbl.iter
        (fun _ stack ->
          Alcotest.(check (list string)) "all spans closed" [] !stack)
        by_domain)

(* ---- counters ---- *)

let test_counter_atomic_across_domains () =
  let c = Obs.Counter.make "test.obs.atomic" in
  let before = Obs.Counter.value c in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Obs.Counter.incr c
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" (before + (4 * per_domain)) (Obs.Counter.value c)

let test_counter_registry_and_delta () =
  let c1 = Obs.Counter.make "test.obs.delta" in
  let again = Obs.Counter.make "test.obs.delta" in
  Obs.Counter.incr c1;
  Alcotest.(check int) "make is idempotent per name" (Obs.Counter.value c1)
    (Obs.Counter.value again);
  let before = Obs.Counter.snapshot () in
  Obs.Counter.add c1 5;
  let delta = Obs.Counter.delta ~before ~after:(Obs.Counter.snapshot ()) in
  Alcotest.(check (list (pair string int))) "only the changed counter"
    [ ("test.obs.delta", 5) ]
    delta

(* ---- incumbent streams ---- *)

let test_incumbent_monotone () =
  let s = Obs.Incumbent.stream "test" in
  Alcotest.(check bool) "first always improves" true (Obs.Incumbent.observe s 10.0);
  Alcotest.(check bool) "worse rejected" false (Obs.Incumbent.observe s 11.0);
  Alcotest.(check bool) "equal rejected" false (Obs.Incumbent.observe s 10.0);
  Alcotest.(check bool) "better accepted" true (Obs.Incumbent.observe s 4.0);
  Alcotest.(check bool) "better again" true (Obs.Incumbent.observe s 1.5);
  Alcotest.(check (float 1e-9)) "best" 1.5 (Obs.Incumbent.best s);
  let series = Obs.Incumbent.series s in
  Alcotest.(check (list (float 1e-9))) "strictly decreasing costs" [ 10.0; 4.0; 1.5 ]
    (List.map snd series);
  let rec sorted = function
    | (t1, _) :: ((t2, _) :: _ as tl) -> Int64.compare t1 t2 <= 0 && sorted tl
    | _ -> true
  in
  Alcotest.(check bool) "timestamps non-decreasing" true (sorted series);
  (* Streams are fresh per call: a second solve starts from infinity even
     under the same name. *)
  let s2 = Obs.Incumbent.stream "test" in
  Alcotest.(check bool) "fresh stream improves again" true (Obs.Incumbent.observe s2 100.0)

let test_incumbent_emits_events () =
  with_tracing (fun () ->
      let s = Obs.Incumbent.stream "conv" in
      List.iter
        (fun c -> ignore (Obs.Incumbent.observe s c : bool))
        [ 5.0; 7.0; 3.0; 3.0; 2.0 ];
      let incs =
        List.filter_map
          (fun (e : Obs.Event.t) ->
            match e.Obs.Event.payload with
            | Obs.Event.Incumbent { stream; cost } when stream = "conv" -> Some cost
            | _ -> None)
          (Obs.Sink.drain ())
      in
      Alcotest.(check (list (float 1e-9))) "one event per improvement" [ 5.0; 3.0; 2.0 ] incs)

(* ---- exporters ---- *)

let sample_events () =
  with_tracing (fun () ->
      Obs.Span.with_ "search" (fun () ->
          Obs.Span.with_ "dive \"quoted\"\n" (fun () -> ());
          let s = Obs.Incumbent.stream "cp" in
          ignore (Obs.Incumbent.observe s 4.5 : bool);
          ignore (Obs.Incumbent.observe s 2.25 : bool);
          Obs.Span.mark "unsat");
      Obs.Sink.drain ())

let test_chrome_trace_well_formed () =
  let events = sample_events () in
  let out =
    export_to_string (Obs.Export.chrome ~counters:[ ("k", 3) ]) events
  in
  (match parse_json out with
  | () -> ()
  | exception Bad_json msg -> Alcotest.failf "invalid chrome JSON: %s" msg);
  Alcotest.(check bool) "has traceEvents" true
    (String.length out > 0
    && String.sub out 0 15 = "{\"traceEvents\":");
  (* Same number of B and E phases, and the incumbent shows up as a
     counter track. *)
  let count needle =
    let rec go from acc =
      match String.index_from_opt out from needle.[0] with
      | None -> acc
      | Some i ->
          if i + String.length needle <= String.length out
             && String.sub out i (String.length needle) = needle
          then go (i + 1) (acc + 1)
          else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "balanced B/E" (count "\"ph\":\"B\"") (count "\"ph\":\"E\"");
  Alcotest.(check bool) "incumbent counter events" true (count "\"ph\":\"C\"" >= 2)

let test_jsonl_lines_parse () =
  let events = sample_events () in
  let out = export_to_string (Obs.Export.jsonl ~counters:[ ("k", 3) ]) events in
  let lines = String.split_on_char '\n' out |> List.filter (fun l -> l <> "") in
  Alcotest.(check int) "header + spans + incumbents + mark + counter"
    (List.length events + 2) (List.length lines);
  (match lines with
  | first :: _ ->
      Alcotest.(check bool) "first line is the header" true
        (String.length first >= 16 && String.sub first 0 16 = "{\"type\":\"header\"")
  | [] -> Alcotest.fail "no lines");
  List.iter
    (fun line ->
      match parse_json line with
      | () -> ()
      | exception Bad_json msg -> Alcotest.failf "invalid JSONL line %S: %s" line msg)
    lines

(* Exporter bytes, pinned: a hand-built event list (fixed timestamps and
   domains) covering every payload kind, a name that needs escaping, a NaN
   cost and every aggregate kind, diffed against committed files. Only the
   export-time "ts_ns"/"domain" stamp on the JSONL header and aggregate
   lines varies between runs; it is masked. Chrome output is compared
   whole. *)
let golden_events () =
  let ev t_ns domain payload = { Obs.Event.t_ns; domain; payload } in
  let odd = "dive \"quoted\"\n\001" in
  [
    ev 1_000L 0 (Obs.Event.Span_begin "search");
    ev 1_500L 0 (Obs.Event.Span_begin odd);
    ev 2_750L 0 (Obs.Event.Span_end odd);
    ev 3_000L 1 (Obs.Event.Incumbent { stream = "cp"; cost = 4.5 });
    ev 3_250L 1 (Obs.Event.Incumbent { stream = "cp"; cost = Float.nan });
    ev 4_000L 0 (Obs.Event.Mark "unsat");
    ev 4_500L 0
      (Obs.Event.Gc_delta
         {
           span = "search";
           minor_words = 1234.0;
           major_words = 0.5;
           promoted_words = 7.0;
           heap_words = 64;
           compactions = 0;
         });
    ev 5_000L 0 (Obs.Event.Span_end "search");
  ]

let golden_export
    (export :
      ?run:Obs.Export.run ->
      ?counters:(string * int) list ->
      ?gauges:(string * float) list ->
      ?hists:Obs.Histogram.snapshot list ->
      out_channel ->
      Obs.Event.t list ->
      unit) =
  let h = Obs.Histogram.create "test.obs.golden" in
  List.iter (Obs.Histogram.record h) [ 1.0; 2.0; 3.0; 0.0 ];
  export_to_string
    (export
       ~run:{ Obs.Export.seed = Some 7; argv = [ "advise"; "--note"; "a\tb" ] }
       ~counters:[ ("k", 3) ]
       ~gauges:[ ("g", 0.1) ]
       ~hists:[ Obs.Histogram.snapshot_of h ])
    (golden_events ())

(* Replace the digits after "ts_ns": and "domain": on the header and
   aggregate lines with "N". *)
let mask_export_stamp line =
  let starts prefix = String.starts_with ~prefix line in
  if
    not
      (List.exists
         (fun ty -> starts (Printf.sprintf "{\"type\":\"%s\"" ty))
         [ "header"; "counter"; "gauge"; "hist" ])
  then line
  else
    let b = Buffer.create (String.length line) in
    let n = String.length line in
    let rec go i =
      if i < n then
        let key k =
          let m = String.length k in
          i + m <= n && String.sub line i m = k
        in
        match List.find_opt key [ "\"ts_ns\":"; "\"domain\":" ] with
        | Some k ->
            Buffer.add_string b k;
            Buffer.add_char b 'N';
            let j = ref (i + String.length k) in
            while !j < n && (match line.[!j] with '0' .. '9' | '-' -> true | _ -> false) do
              incr j
            done;
            go !j
        | None ->
            Buffer.add_char b line.[i];
            go (i + 1)
    in
    go 0;
    Buffer.contents b

let golden_file name =
  let path =
    List.find_opt Sys.file_exists
      [ Filename.concat "golden" name; Filename.concat "test/golden" name ]
  in
  In_channel.with_open_text (Option.value path ~default:name) In_channel.input_all

let test_exporters_match_golden () =
  let jsonl =
    golden_export Obs.Export.jsonl
    |> String.split_on_char '\n'
    |> List.map mask_export_stamp
    |> String.concat "\n"
  in
  Alcotest.(check string) "jsonl bytes" (golden_file "obs-export.jsonl") jsonl;
  Alcotest.(check string) "chrome bytes" (golden_file "obs-export.chrome.json")
    (golden_export Obs.Export.chrome)

(* What [advise --obs-summary] prints: the report of the in-memory trace,
   with no JSONL round trip. *)
let test_summary_renders () =
  let events = sample_events () in
  let trace =
    {
      Obs.Trace.header =
        Some { schema = Obs.Export.schema_version; seed = Some 7; argv = [ "advise" ] };
      events;
      counters = [ ("test.obs.k", 3) ];
      gauges = [ ("test.obs.g", 0.5) ];
      hists = [];
    }
  in
  let out = export_to_string (fun oc () -> Obs.Trace.report oc trace) () in
  let contains needle =
    let nl = String.length needle and ol = String.length out in
    let rec go i = i + nl <= ol && (String.sub out i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "provenance" true (contains "run: advise (schema 2, seed 7)");
  Alcotest.(check bool) "span tree" true (contains "search");
  Alcotest.(check bool) "incumbent stream" true (contains "cp");
  Alcotest.(check bool) "counter table" true (contains "test.obs.k");
  Alcotest.(check bool) "gauge table" true (contains "test.obs.g")

let test_ring_drop_newest () =
  Obs.Sink.reset ();
  Obs.Sink.enable ~capacity:8 ();
  Fun.protect
    ~finally:(fun () ->
      Obs.Sink.disable ();
      Obs.Sink.reset ())
    (fun () ->
      (* Rings size themselves at first use, so a ring allocated by an
         earlier test keeps its old capacity: exercise the cap from a fresh
         domain, whose ring is created under the small capacity. *)
      let dropped_in_domain =
        Domain.join
          (Domain.spawn (fun () ->
               for i = 1 to 20 do
                 Obs.Span.mark (string_of_int i)
               done;
               Obs.Sink.dropped ()))
      in
      let events = Obs.Sink.drain () in
      Alcotest.(check int) "ring capped" 8 (List.length events);
      (* Drop-newest: the oldest events survive. *)
      Alcotest.(check (list string)) "oldest kept"
        [ "1"; "2"; "3"; "4"; "5"; "6"; "7"; "8" ]
        (List.map Obs.Event.name events);
      Alcotest.(check int) "drops counted" 12 dropped_in_domain)

(* ---- histograms ---- *)

let snap_of_values ?(alpha = Obs.Histogram.default_alpha) name values =
  let h = Obs.Histogram.create ~alpha name in
  List.iter (Obs.Histogram.record h) values;
  Obs.Histogram.snapshot_of h

(* The same rank convention quantile_of uses: the ceil(q*n)-th smallest
   value (1-based), clamped to [1, n]. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let r = int_of_float (Float.ceil (q *. float_of_int n)) in
  let r = if r < 1 then 1 else if r > n then n else r in
  sorted.(r - 1)

(* Log-uniform positive values spanning the trackable range, so the
   property exercises buckets 18 decades apart, not just one decade. *)
let log_uniform_value = QCheck.(map (fun e -> 10.0 ** e) (float_range (-6.0) 12.0))

let qcheck_quantile_relative_error =
  QCheck.Test.make ~name:"histogram quantile within alpha relative error" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 300) log_uniform_value)
    (fun values ->
      let s = snap_of_values "qcheck.quantile" values in
      let sorted = Array.of_list values in
      Array.sort compare sorted;
      List.for_all
        (fun q ->
          let est = Obs.Histogram.quantile_of s q in
          let exact = exact_quantile sorted q in
          (* alpha with a sliver of slack for the float log/pow round
             trips in bucket indexing. *)
          Float.abs (est -. exact) <= (Obs.Histogram.default_alpha *. 1.05 *. exact) +. 1e-12)
        [ 0.0; 0.1; 0.25; 0.5; 0.75; 0.9; 0.99; 1.0 ])

(* Exact equality on everything merge promises exactly; hist_sum is float
   addition in merge order, so it only gets a relative tolerance. *)
let snapshot_equivalent (a : Obs.Histogram.snapshot) (b : Obs.Histogram.snapshot) =
  a.Obs.Histogram.hist_alpha = b.Obs.Histogram.hist_alpha
  && a.hist_count = b.hist_count
  && a.hist_zero = b.hist_zero
  && a.hist_buckets = b.hist_buckets
  && a.hist_min = b.hist_min
  && a.hist_max = b.hist_max
  && Float.abs (a.hist_sum -. b.hist_sum)
     <= 1e-9 *. (1.0 +. Float.abs a.hist_sum +. Float.abs b.hist_sum)

(* Mixed-sign values so the zero/underflow bucket is merged too. *)
let mixed_values = QCheck.(small_list (float_range (-5.0) 1e6))

let qcheck_merge_commutative =
  QCheck.Test.make ~name:"histogram merge is commutative" ~count:200
    QCheck.(pair mixed_values mixed_values)
    (fun (xs, ys) ->
      let a = snap_of_values "qcheck.merge.a" xs and b = snap_of_values "qcheck.merge.b" ys in
      snapshot_equivalent (Obs.Histogram.merge a b) (Obs.Histogram.merge b a))

let qcheck_merge_associative =
  QCheck.Test.make ~name:"histogram merge is associative" ~count:200
    QCheck.(triple mixed_values mixed_values mixed_values)
    (fun (xs, ys, zs) ->
      let a = snap_of_values "qcheck.merge.a" xs
      and b = snap_of_values "qcheck.merge.b" ys
      and c = snap_of_values "qcheck.merge.c" zs in
      snapshot_equivalent
        (Obs.Histogram.merge (Obs.Histogram.merge a b) c)
        (Obs.Histogram.merge a (Obs.Histogram.merge b c)))

let qcheck_merge_equals_single_stream =
  QCheck.Test.make ~name:"merge of split streams equals one stream" ~count:200
    QCheck.(pair mixed_values mixed_values)
    (fun (xs, ys) ->
      let a = snap_of_values "qcheck.split.a" xs and b = snap_of_values "qcheck.split.b" ys in
      snapshot_equivalent (Obs.Histogram.merge a b) (snap_of_values "qcheck.whole" (xs @ ys)))

let test_histogram_edge_values () =
  let h = Obs.Histogram.create "test.obs.hist.edges" in
  List.iter (Obs.Histogram.record h) [ 0.0; -3.0; nan; 42.0 ];
  let s = Obs.Histogram.snapshot_of h in
  Alcotest.(check int) "NaN ignored" 3 s.Obs.Histogram.hist_count;
  Alcotest.(check int) "zero and negative underflow" 2 s.hist_zero;
  Alcotest.(check (float 1e-9)) "min exact" (-3.0) s.hist_min;
  Alcotest.(check (float 1e-9)) "max exact" 42.0 s.hist_max;
  Alcotest.(check (float 1e-9)) "low quantile hits underflow" (-3.0)
    (Obs.Histogram.quantile_of s 0.1);
  Alcotest.(check bool) "p99 near 42" true
    (Float.abs (Obs.Histogram.quantile_of s 0.99 -. 42.0) <= 0.5)

let test_histogram_concurrent_recording () =
  let h = Obs.Histogram.create "test.obs.hist.concurrent" in
  let per_domain = 25_000 in
  let domains =
    List.init 4 (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Obs.Histogram.record h (float_of_int ((d * per_domain) + i))
            done))
  in
  List.iter Domain.join domains;
  let s = Obs.Histogram.snapshot_of h in
  let n = 4 * per_domain in
  Alcotest.(check int) "count conserved" n s.Obs.Histogram.hist_count;
  Alcotest.(check int) "bucket tally conserved" n
    (List.fold_left (fun acc (_, c) -> acc + c) 0 s.hist_buckets);
  Alcotest.(check (float 1e-9)) "min survives the race" 1.0 s.hist_min;
  Alcotest.(check (float 1e-9)) "max survives the race" (float_of_int n) s.hist_max;
  (* Every recorded value is an integer and the total stays below 2^53,
     so each CAS addition is exact float arithmetic in any order. *)
  Alcotest.(check (float 1e-3)) "sum conserved"
    (float_of_int n *. float_of_int (n + 1) /. 2.0)
    s.hist_sum

(* ---- trace forensics (obs report / obs compare) ---- *)

(* `dune runtest` runs this binary from _build/default/test; `dune exec
   test/test_main.exe` (the TSan CI job) runs it from the project root.
   Probe both so the fixture resolves either way. *)
let fixture name =
  let candidates =
    [ Filename.concat "../bench/fixtures" name; Filename.concat "bench/fixtures" name ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some path -> path
  | None -> List.hd candidates

let load_fixture name =
  match Obs.Trace.load (fixture name) with
  | Ok t -> t
  | Error e -> Alcotest.failf "load %s: %s" name e

let test_obs_report_matches_golden () =
  let t = load_fixture "trace_small.jsonl" in
  let got = export_to_string (fun oc () -> Obs.Trace.report oc t) () in
  let want = In_channel.with_open_text (fixture "trace_small.report.txt") In_channel.input_all in
  Alcotest.(check string) "report matches committed golden output" want got

let test_obs_compare_self_is_clean () =
  let t = load_fixture "trace_small.jsonl" in
  Alcotest.(check (option string)) "no header mismatch with itself" None
    (Obs.Trace.header_mismatch t t);
  let checks = Obs.Trace.compare_traces ~base:t ~current:t () in
  Alcotest.(check bool) "has checks" true (checks <> []);
  List.iter
    (fun (c : Obs.Trace.check) ->
      if not c.Obs.Trace.ok then Alcotest.failf "self-compare flagged %s" c.Obs.Trace.metric)
    checks

let test_obs_compare_flags_regression () =
  let base = load_fixture "trace_small.jsonl" in
  let regressed = load_fixture "trace_small_regressed.jsonl" in
  Alcotest.(check (option string)) "same provenance, comparable" None
    (Obs.Trace.header_mismatch base regressed);
  let checks = Obs.Trace.compare_traces ~base ~current:regressed () in
  let failed =
    List.filter_map
      (fun (c : Obs.Trace.check) -> if c.Obs.Trace.ok then None else Some c.Obs.Trace.metric)
      checks
  in
  let has needle = List.mem needle failed in
  Alcotest.(check bool) "span regression flagged" true (has "span:anneal.solve.total_ms");
  Alcotest.(check bool) "histogram p99 regression flagged" true
    (has "hist:anneal.move_ns.p99");
  Alcotest.(check bool) "final-cost regression flagged" true (has "quality:anneal.final_cost");
  (* Most-regressed first: the head of the list must be a failure. *)
  match checks with
  | c :: _ -> Alcotest.(check bool) "failures sorted first" false c.Obs.Trace.ok
  | [] -> Alcotest.fail "no checks"

(* Replace the first occurrence of [needle] in [hay]. *)
let replace_once hay needle replacement =
  let nh = String.length hay and nn = String.length needle in
  let rec find i = if i + nn > nh then None else if String.sub hay i nn = needle then Some i else find (i + 1) in
  match find 0 with
  | None -> Alcotest.failf "fixture lacks %S" needle
  | Some i ->
      String.sub hay 0 i ^ replacement ^ String.sub hay (i + nn) (nh - i - nn)

let test_obs_compare_refuses_mismatched_header () =
  let base = load_fixture "trace_small.jsonl" in
  let text = In_channel.with_open_text (fixture "trace_small.jsonl") In_channel.input_all in
  let reseed s =
    match Obs.Trace.of_string (replace_once text "\"seed\":7" (Printf.sprintf "\"seed\":%d" s)) with
    | Ok t -> t
    | Error e -> Alcotest.failf "reseeded trace: %s" e
  in
  (match Obs.Trace.header_mismatch base (reseed 8) with
  | Some reason ->
      Alcotest.(check bool) "mismatch names the seed" true
        (let nl = String.length "seed" and ol = String.length reason in
         let rec go i = i + nl <= ol && (String.sub reason i nl = "seed" || go (i + 1)) in
         go 0)
  | None -> Alcotest.fail "seed mismatch not detected");
  Alcotest.(check (option string)) "identical header still matches" None
    (Obs.Trace.header_mismatch base (reseed 7));
  (* A trace from a newer schema than this binary understands must refuse
     to load at all. *)
  match Obs.Trace.of_string (replace_once text "\"schema\":2" "\"schema\":99") with
  | Ok _ -> Alcotest.fail "newer schema accepted"
  | Error _ -> ()

(* A span that conses 10,000 list cells (3 words each) allocates at
   least 30,000 minor words, whether or not a minor collection falls
   inside it: [Gc.quick_stat] would report 0 for a span that ends before
   the next collection. *)
let test_resource_counts_minor_words () =
  with_tracing (fun () ->
      let cells =
        Obs.Resource.with_ "cons" (fun () ->
            Sys.opaque_identity (List.init 10_000 (fun i -> i)))
      in
      Alcotest.(check int) "list built" 10_000 (List.length cells);
      let minor =
        List.filter_map
          (fun (e : Obs.Event.t) ->
            match e.Obs.Event.payload with
            | Obs.Event.Gc_delta { span = "cons"; minor_words; _ } -> Some minor_words
            | _ -> None)
          (Obs.Sink.drain ())
      in
      match minor with
      | [ w ] ->
          if w < 30_000.0 then Alcotest.failf "span reports %.0f minor words, under 30000" w
      | l -> Alcotest.failf "expected one Gc_delta for the span, got %d" (List.length l))

(* A block over 256 words is allocated straight into the major heap.
   [Gc.quick_stat] counts it only at the next major slice, so a span can
   read 0 words for it and a later span its words too; each of these
   spans must report its own 115,000 bytes (14,375 words). *)
let test_resource_counts_major_words () =
  with_tracing (fun () ->
      for _ = 1 to 4 do
        Obs.Resource.with_ "big" (fun () -> ignore (Sys.opaque_identity (Bytes.create 115_000)))
      done;
      let major =
        List.filter_map
          (fun (e : Obs.Event.t) ->
            match e.Obs.Event.payload with
            | Obs.Event.Gc_delta { span = "big"; major_words; _ } -> Some major_words
            | _ -> None)
          (Obs.Sink.drain ())
      in
      Alcotest.(check int) "one Gc_delta per span" 4 (List.length major);
      List.iteri
        (fun k w ->
          if w < 14_000.0 then Alcotest.failf "span %d reports %.0f major words, under 14000" k w)
        major)

let suite =
  [
    Alcotest.test_case "resource counts minor words" `Quick test_resource_counts_minor_words;
    Alcotest.test_case "disabled sink records nothing" `Quick
      test_disabled_sink_records_nothing;
    Alcotest.test_case "span passes result through" `Quick test_span_result_passthrough;
    Alcotest.test_case "span nesting single domain" `Quick test_span_nesting_single_domain;
    Alcotest.test_case "span exception safety" `Quick test_spans_exception_safe;
    Alcotest.test_case "spans across domains" `Quick test_spans_multiple_domains;
    Alcotest.test_case "counter atomicity" `Quick test_counter_atomic_across_domains;
    Alcotest.test_case "counter registry and delta" `Quick test_counter_registry_and_delta;
    Alcotest.test_case "incumbent monotonicity" `Quick test_incumbent_monotone;
    Alcotest.test_case "incumbent emits events" `Quick test_incumbent_emits_events;
    Alcotest.test_case "chrome trace well-formed" `Quick test_chrome_trace_well_formed;
    Alcotest.test_case "jsonl lines parse" `Quick test_jsonl_lines_parse;
    Alcotest.test_case "summary renders" `Quick test_summary_renders;
    Alcotest.test_case "exporters match golden bytes" `Quick test_exporters_match_golden;
    Alcotest.test_case "ring drops newest" `Quick test_ring_drop_newest;
    Alcotest.test_case "histogram edge values" `Quick test_histogram_edge_values;
    Alcotest.test_case "histogram concurrent recording" `Quick
      test_histogram_concurrent_recording;
    Alcotest.test_case "obs report matches golden fixture" `Quick
      test_obs_report_matches_golden;
    Alcotest.test_case "obs compare self is clean" `Quick test_obs_compare_self_is_clean;
    Alcotest.test_case "obs compare flags regression" `Quick
      test_obs_compare_flags_regression;
    Alcotest.test_case "obs compare refuses mismatched header" `Quick
      test_obs_compare_refuses_mismatched_header;
    Alcotest.test_case "resource counts major words" `Quick test_resource_counts_major_words;
  ]
  @ List.map
      (QCheck_alcotest.to_alcotest ~long:false)
      [
        qcheck_quantile_relative_error;
        qcheck_merge_commutative;
        qcheck_merge_associative;
        qcheck_merge_equals_single_stream;
      ]
