(* Statistics over samples and the one-line JSON result. *)

(* Linear-interpolation quantile of a non-empty sample, q in [0, 1]. *)
let quantile q xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then invalid_arg "quantile: empty sample";
  let pos = q *. float_of_int (n - 1) in
  let i = int_of_float pos in
  if i >= n - 1 then a.(n - 1)
  else
    let frac = pos -. float_of_int i in
    a.(i) +. (frac *. (a.(i + 1) -. a.(i)))

let median xs = quantile 0.5 xs

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Peak resident set of this process (VmHWM), MiB. *)
let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec scan () =
        match In_channel.input_line ic with
        | None -> failwith "peak_rss_mb: no VmHWM in /proc/self/status"
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> scan ()
      in
      scan ())

(* A failed output check: the run reports [correct = false]. *)
exception Check_failed of string

let check cond fmt =
  Printf.ksprintf (fun msg -> if not cond then raise (Check_failed msg)) fmt

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

type t = { correct : bool; attempted : int; failed : int; metrics : metric list }

let to_json r =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("correct", Obs.Json.Bool r.correct);
         ("attempted", Obs.Json.of_int r.attempted);
         ("failed", Obs.Json.of_int r.failed);
         ( "metrics",
           Obs.Json.Obj
             (List.map
                (fun x ->
                  ( x.name,
                    Obs.Json.Obj
                      [ ("value", Obs.Json.of_float x.value); ("unit", Obs.Json.Str x.unit_) ] ))
                r.metrics) );
       ])

(* Human-readable lines before the JSON, one metric per line. *)
let print_table r =
  List.iter (fun x -> Printf.printf "  %-28s %16.6f %s\n" x.name x.value x.unit_) r.metrics
