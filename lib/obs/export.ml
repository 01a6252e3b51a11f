let schema_version = 2

type run = {
  seed : int option;
  argv : string list;
}

(* ---- JSONL: one self-describing JSON object per line ---- *)

let hist_json (s : Histogram.snapshot) =
  [
    ("type", Json.Str "hist");
    ("name", Json.Str s.hist_name);
    ("alpha", Json.of_float s.hist_alpha);
    ("count", Json.of_int s.hist_count);
    ("sum", Json.of_float s.hist_sum);
    ("min", Json.of_float s.hist_min);
    ("max", Json.of_float s.hist_max);
    ("zero", Json.of_int s.hist_zero);
    ( "buckets",
      Json.Arr (List.map (fun (i, c) -> Json.Arr [ Json.of_int i; Json.of_int c ]) s.hist_buckets)
    );
  ]

let jsonl ?run ?(counters = []) ?(gauges = []) ?(hists = []) oc events =
  let line fields stamp =
    output_string oc (Json.to_string (Json.Obj (fields @ stamp)));
    output_char oc '\n'
  in
  let stamp t_ns domain = [ ("ts_ns", Json.of_int64 t_ns); ("domain", Json.of_int domain) ] in
  (* Aggregate (counter/gauge/hist) lines are point-in-time snapshots:
     stamp them all with one export-time timestamp and the exporting
     domain, so every line in the file carries ts_ns/domain. *)
  let now = stamp (Clock.now_ns ()) (Domain.self () :> int) in
  (let seed, argv = match run with Some r -> (r.seed, r.argv) | None -> (None, []) in
   line
     [
       ("type", Json.Str "header");
       ("schema", Json.of_int schema_version);
       ("seed", match seed with Some s -> Json.of_int s | None -> Json.Null);
       ("argv", Json.Arr (List.map (fun a -> Json.Str a) argv));
     ]
     now);
  List.iter
    (fun (e : Event.t) ->
      let fields =
        match e.Event.payload with
        | Event.Span_begin n -> [ ("type", Json.Str "span_begin"); ("name", Json.Str n) ]
        | Event.Span_end n -> [ ("type", Json.Str "span_end"); ("name", Json.Str n) ]
        | Event.Incumbent { stream; cost } ->
            [
              ("type", Json.Str "incumbent");
              ("stream", Json.Str stream);
              ("cost", Json.of_float cost);
            ]
        | Event.Mark n -> [ ("type", Json.Str "mark"); ("name", Json.Str n) ]
        | Event.Gc_delta g ->
            [
              ("type", Json.Str "gc");
              ("span", Json.Str g.span);
              ("minor_words", Json.of_float g.minor_words);
              ("major_words", Json.of_float g.major_words);
              ("promoted_words", Json.of_float g.promoted_words);
              ("heap_words", Json.of_int g.heap_words);
              ("compactions", Json.of_int g.compactions);
            ]
      in
      line fields (stamp e.Event.t_ns e.Event.domain))
    events;
  let aggregate ty name value_key value =
    line [ ("type", Json.Str ty); ("name", Json.Str name); (value_key, value) ] now
  in
  List.iter (fun (name, total) -> aggregate "counter" name "total" (Json.of_int total)) counters;
  List.iter (fun (name, v) -> aggregate "gauge" name "value" (Json.of_float v)) gauges;
  List.iter (fun s -> line (hist_json s) now) hists

(* ---- Chrome trace_event format (chrome://tracing, Perfetto) ---- *)

let chrome ?run ?(counters = []) ?(gauges = []) ?(hists = []) oc events =
  ignore run;
  let t0 =
    List.fold_left
      (fun acc (e : Event.t) -> if Int64.compare e.Event.t_ns acc < 0 then e.Event.t_ns else acc)
      (match events with [] -> 0L | e :: _ -> e.Event.t_ns)
      events
  in
  let last = ref 0.0 in
  let us t =
    let v = Clock.ns_to_us (Int64.sub t t0) in
    if v > !last then last := v;
    v
  in
  output_string oc "{\"traceEvents\":[";
  let first = ref true in
  let emit ~name ~ph ~ts ~tid extra =
    if !first then first := false else output_char oc ',';
    output_char oc '\n';
    output_string oc
      (Json.to_string
         (Json.Obj
            ([
               ("name", Json.Str name);
               ("cat", Json.Str "cloudia");
               ("ph", Json.Str ph);
               ("ts", Json.Num (Printf.sprintf "%.3f" ts));
               ("pid", Json.of_int 1);
               ("tid", Json.of_int tid);
             ]
            @ extra)))
  in
  let args fields = [ ("args", Json.Obj fields) ] in
  List.iter
    (fun (e : Event.t) ->
      let emit = emit ~ts:(us e.Event.t_ns) ~tid:e.Event.domain in
      match e.Event.payload with
      | Event.Span_begin n -> emit ~name:n ~ph:"B" []
      | Event.Span_end n -> emit ~name:n ~ph:"E" []
      | Event.Incumbent { stream; cost } ->
          emit ~name:("incumbent:" ^ stream) ~ph:"C" (args [ ("cost", Json.of_float cost) ])
      | Event.Mark n -> emit ~name:n ~ph:"i" [ ("s", Json.Str "t") ]
      | Event.Gc_delta g ->
          emit ~name:("gc:" ^ g.span) ~ph:"C"
            (args
               [
                 ("minor_words", Json.of_float g.minor_words);
                 ("major_words", Json.of_float g.major_words);
               ]))
    events;
  (* Final counter/gauge totals as counter samples at the trace's end. *)
  let final = emit ~ts:!last ~tid:0 in
  List.iter
    (fun (name, total) -> final ~name ~ph:"C" (args [ ("value", Json.of_int total) ]))
    counters;
  List.iter (fun (name, v) -> final ~name ~ph:"C" (args [ ("value", Json.of_float v) ])) gauges;
  (* Histograms as end-of-trace instants carrying their quantile table. *)
  List.iter
    (fun (s : Histogram.snapshot) ->
      let q p = Json.of_float (Histogram.quantile_of s p) in
      final ~name:("hist:" ^ s.hist_name) ~ph:"i"
        (("s", Json.Str "g")
        :: args
             [
               ("count", Json.of_int s.hist_count);
               ("p50", q 0.50);
               ("p90", q 0.90);
               ("p99", q 0.99);
               ("max", Json.of_float s.hist_max);
             ]))
    hists;
  output_string oc "\n]}\n"
