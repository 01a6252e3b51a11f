let parse_raw text =
  let lines =
    String.split_on_char '\n' text
    |> List.map String.trim
    |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  in
  if lines = [] then Error "empty input"
  else begin
    let parse_cell cell =
      (* Accept an explicit "nan" (any case) as the unsampled-pair marker
         that [print] emits, independent of what the platform's strtod
         recognizes. Everything else goes through the normal float path. *)
      if String.lowercase_ascii cell = "nan" then Some nan
      else float_of_string_opt cell
    in
    let parse_row lineno line =
      let cells = String.split_on_char ',' line |> List.map String.trim in
      let values = List.map parse_cell cells in
      if List.exists Option.is_none values then
        Error (Printf.sprintf "line %d: not a number in %S" lineno line)
      else Ok (Array.of_list (List.map Option.get values))
    in
    let rec collect lineno acc = function
      | [] -> Ok (Array.of_list (List.rev acc))
      | line :: rest -> (
          match parse_row lineno line with
          | Ok row -> collect (lineno + 1) (row :: acc) rest
          | Error _ as e -> e)
    in
    collect 1 [] lines
  end

let print lat =
  let n = Lat_matrix.dim lat in
  let buf = Buffer.create 256 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if j > 0 then Buffer.add_string buf ", ";
      let v = Lat_matrix.unsafe_get lat i j in
      (* Canonical "nan" (never "-nan"), so printed partial matrices
         round-trip through [parse_raw] on every platform. *)
      if Float.is_nan v then Buffer.add_string buf "nan"
      else Buffer.add_string buf (Printf.sprintf "%.6g" v)
    done;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf

(* ---------- binary format (see Lat_matrix) ---------- *)

let save_binary path lat = Lat_matrix.write_binary path lat

let load path =
  if Lat_matrix.looks_binary path then
    Result.map_error (fun e -> `Msg e) (Lat_matrix.read_binary path)
  else
    match In_channel.with_open_text path In_channel.input_all with
    | exception Sys_error e -> Error (`Msg e)
    | text -> (
        match parse_raw text with
        | Error e -> Error (`Msg e)
        | Ok rows ->
            let n = Array.length rows in
            if Array.for_all (fun row -> Array.length row = n) rows then
              Ok (Lat_matrix.of_arrays rows)
            else Error (`Lint (Lint.Instance.check_matrix rows)))
