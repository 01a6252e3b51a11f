type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

type t = {
  severity : severity;
  code : string;
  context : string;
  message : string;
}

let make severity ~code ~context message = { severity; code; context; message }

let errors ds = List.filter (fun d -> d.severity = Error) ds
let warnings ds = List.filter (fun d -> d.severity = Warning) ds

let worst = function
  | [] -> None
  | ds ->
      Some
        (List.fold_left
           (fun acc d -> if severity_rank d.severity > severity_rank acc then d.severity else acc)
           Info ds)

let sort ds =
  List.stable_sort
    (fun a b ->
      match compare (severity_rank b.severity) (severity_rank a.severity) with
      | 0 -> ( match compare a.code b.code with 0 -> compare a.context b.context | c -> c)
      | c -> c)
    ds

let to_string d =
  Printf.sprintf "%s[%s] %s: %s" (severity_to_string d.severity) d.code d.context d.message

let pp fmt d = Format.pp_print_string fmt (to_string d)

let render fmt ds =
  List.iter (fun d -> Format.fprintf fmt "%a@." pp d) (sort ds)

let json ds =
  let one d =
    Obs.Json.Obj
      [
        ("severity", Obs.Json.Str (severity_to_string d.severity));
        ("code", Obs.Json.Str d.code);
        ("context", Obs.Json.Str d.context);
        ("message", Obs.Json.Str d.message);
      ]
  in
  Obs.Json.Arr (List.map one (sort ds))

let to_json ds = Obs.Json.to_string (json ds)

exception Failed of t list

let failure_message ds =
  String.concat "\n" (List.map to_string (sort ds))

let check ?(strict = false) ds =
  let blocking d =
    match d.severity with Error -> true | Warning -> strict | Info -> false
  in
  if List.exists blocking ds then raise (Failed ds)

let () =
  Printexc.register_printer (function
    | Failed ds -> Some ("lint failed:\n" ^ failure_message ds)
    | _ -> None)
