(* Benchmark-side spans: recorded around calls into each layer's public
   function, kept in memory, written out as JSONL when the run ends. The
   program itself is untouched — these spans live in the benchmark only,
   and cost nothing while [enabled] is false. *)

type span = {
  id : int;
  parent : int;  (* 0 = root *)
  request : int;  (* spans of one request share it *)
  name : string;
  start_s : float;
  stop_s : float;
}

let enabled = ref false
let spans : span list ref = ref []
let next_id = ref 0
let lock = Mutex.create ()

(* Innermost open span of the calling thread's request, per request. *)
let open_ : (int, int) Hashtbl.t = Hashtbl.create 16

let with_ ~request name f =
  if not !enabled then f ()
  else begin
    let id, parent =
      Mutex.protect lock (fun () ->
          incr next_id;
          let parent = Option.value ~default:0 (Hashtbl.find_opt open_ request) in
          Hashtbl.replace open_ request !next_id;
          (!next_id, parent))
    in
    let start_s = Obs.Clock.now_s () in
    let finish () =
      let stop_s = Obs.Clock.now_s () in
      Mutex.protect lock (fun () ->
          if parent = 0 then Hashtbl.remove open_ request
          else Hashtbl.replace open_ request parent;
          spans := { id; parent; request; name; start_s; stop_s } :: !spans)
    in
    Fun.protect ~finally:finish f
  end

let all () = List.rev !spans

let duration s = s.stop_s -. s.start_s

(* Self time of every span: its duration minus the part its direct
   children cover (children of one span never overlap here — each layer
   call returns before the next starts). *)
let self_times () =
  let child_total = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_total s.parent
          (duration s +. Option.value ~default:0.0 (Hashtbl.find_opt child_total s.parent)))
    !spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0.0 (Hashtbl.find_opt child_total s.id)))
    (all ())

let write path =
  let dir = Filename.dirname path in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Out_channel.with_open_text path (fun oc ->
      List.iter
        (fun (s, self) ->
          let ns t = Obs.Json.of_int64 (Int64.of_float (t *. 1e9)) in
          output_string oc
            (Obs.Json.to_string
               (Obs.Json.Obj
                  [
                    ("id", Obs.Json.of_int s.id);
                    ("parent", Obs.Json.of_int s.parent);
                    ("request", Obs.Json.of_int s.request);
                    ("name", Obs.Json.Str s.name);
                    ("start_ns", ns s.start_s);
                    ("stop_ns", ns s.stop_s);
                    ("self_ns", ns self);
                  ]));
          output_char oc '\n')
        (self_times ()))

(* Median self time of the spans called [name], ms; 0 when none ran. *)
let median_self_ms name =
  match
    List.filter_map
      (fun (s, self) -> if s.name = name then Some (self *. 1000.0) else None)
      (self_times ())
  with
  | [] -> 0.0
  | xs -> Report.median xs
