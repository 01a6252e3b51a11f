(* The parser and printer of Obs.Json before the allocation-free rewrite,
   kept verbatim apart from naming the shared type and exception. *)

open Obs.Json

let parse (s : string) =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Obs.Json.Bad (Printf.sprintf "%s at byte %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        incr pos;
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> incr pos
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    String.iter expect word;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> incr pos
      | Some '\\' -> (
          incr pos;
          match peek () with
          | Some '"' -> Buffer.add_char b '"'; incr pos; go ()
          | Some '\\' -> Buffer.add_char b '\\'; incr pos; go ()
          | Some '/' -> Buffer.add_char b '/'; incr pos; go ()
          | Some 'b' -> Buffer.add_char b '\b'; incr pos; go ()
          | Some 'f' -> Buffer.add_char b '\012'; incr pos; go ()
          | Some 'n' -> Buffer.add_char b '\n'; incr pos; go ()
          | Some 'r' -> Buffer.add_char b '\r'; incr pos; go ()
          | Some 't' -> Buffer.add_char b '\t'; incr pos; go ()
          | Some 'u' ->
              incr pos;
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              (match int_of_string_opt ("0x" ^ hex) with
              | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
              | Some _ ->
                  (* The emitters only escape control chars; anything else
                     is preserved approximately. *)
                  Buffer.add_char b '?'
              | None -> fail "bad \\u escape");
              pos := !pos + 4;
              go ()
          | _ -> fail "bad escape")
      | Some c ->
          Buffer.add_char b c;
          incr pos;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      incr pos
    done;
    if !pos = start then fail "expected a number";
    let raw = String.sub s start (!pos - start) in
    match float_of_string_opt raw with
    | Some _ -> Num raw
    | None -> fail (Printf.sprintf "malformed number %S" raw)
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let fields = ref [] in
          let continue = ref true in
          while !continue do
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            fields := (k, v) :: !fields;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some '}' ->
                incr pos;
                continue := false
            | _ -> fail "expected ',' or '}'"
          done;
          Obj (List.rev !fields)
        end
    | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          Arr []
        end
        else begin
          let items = ref [] in
          let continue = ref true in
          while !continue do
            items := parse_value () :: !items;
            skip_ws ();
            match peek () with
            | Some ',' -> incr pos
            | Some ']' ->
                incr pos;
                continue := false
            | _ -> fail "expected ',' or ']'"
          done;
          Arr (List.rev !items)
        end
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let of_float f = if Float.is_finite f then Num (Printf.sprintf "%.17g" f) else Null

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_string v =
  let b = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num raw -> Buffer.add_string b raw
    | Str s ->
        Buffer.add_char b '"';
        Buffer.add_string b (escape s);
        Buffer.add_char b '"'
    | Arr items ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            emit v)
          items;
        Buffer.add_char b ']'
    | Obj fields ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            Buffer.add_string b (escape k);
            Buffer.add_string b "\":";
            emit v)
          fields;
        Buffer.add_char b '}'
  in
  emit v;
  Buffer.contents b
