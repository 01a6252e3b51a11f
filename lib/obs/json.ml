(* Minimal JSON parser + emitter shared by the trace loader and the
   serve protocol. See the .mli for the contract.

   Both directions run at memory speed on the serve protocol's matrix
   frames (thousands of numbers per document): the scanner allocates
   nothing per byte, validates numbers lexically so each one is converted
   once (by the accessor that needs it), and the printer writes %.17g
   without going through [Printf] for the floats a latency matrix
   holds. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Bad of string

(* ---- parsing ---- *)

type cursor = { s : string; n : int; mutable pos : int }

let fail c msg = raise (Bad (Printf.sprintf "%s at byte %d" msg c.pos))

let[@inline] at c = String.unsafe_get c.s c.pos

let[@cloudia.hot] skip_ws c =
  while c.pos < c.n && match at c with ' ' | '\t' | '\n' | '\r' -> true | _ -> false do
    c.pos <- c.pos + 1
  done

let[@inline] looking_at c ch = c.pos < c.n && at c = ch

let expect c ch =
  if looking_at c ch then c.pos <- c.pos + 1 else fail c (Printf.sprintf "expected '%c'" ch)

let literal c word v =
  for i = 0 to String.length word - 1 do
    expect c word.[i]
  done;
  v

let parse_string c =
  expect c '"';
  let b = Buffer.create 16 in
  let add ch =
    Buffer.add_char b ch;
    c.pos <- c.pos + 1
  in
  let rec go () =
    if c.pos >= c.n then fail c "unterminated string"
    else
      match at c with
      | '"' -> c.pos <- c.pos + 1
      | '\\' ->
          c.pos <- c.pos + 1;
          (if c.pos >= c.n then fail c "bad escape"
           else
             match at c with
             | '"' -> add '"'
             | '\\' -> add '\\'
             | '/' -> add '/'
             | 'b' -> add '\b'
             | 'f' -> add '\012'
             | 'n' -> add '\n'
             | 'r' -> add '\r'
             | 't' -> add '\t'
             | 'u' ->
                 c.pos <- c.pos + 1;
                 if c.pos + 4 > c.n then fail c "bad \\u escape";
                 (match int_of_string_opt ("0x" ^ String.sub c.s c.pos 4) with
                 | Some code when code < 0x80 -> Buffer.add_char b (Char.chr code)
                 | Some _ ->
                     (* The emitters only escape control chars; anything
                        else is preserved approximately. *)
                     Buffer.add_char b '?'
                 | None -> fail c "bad \\u escape");
                 c.pos <- c.pos + 4
             | _ -> fail c "bad escape");
          go ()
      | ch ->
          add ch;
          go ()
  in
  go ();
  Buffer.contents b

let[@inline] is_digit ch = ch >= '0' && ch <= '9'

(* The end of the run of number characters [0-9+-.eE] from [i]. *)
let[@cloudia.hot] number_end s i n =
  let i = ref i in
  while
    !i < n
    && match String.unsafe_get s !i with
       | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
       | _ -> false
  do
    incr i
  done;
  !i

(* Whether [s.[start..stop)], a run of [0-9+-.eE], is a number
   [float_of_string_opt] accepts: strtod's decimal grammar, which must
   consume the whole run,
     [+-]? (D+ ('.' D* )? | '.' D+) ([eE] [+-]? D+)?
   The test suite checks the two agree on every run of up to 5 such
   characters. *)
let[@cloudia.hot] is_number s start stop =
  let i = ref start in
  if !i < stop && (String.unsafe_get s !i = '+' || String.unsafe_get s !i = '-') then incr i;
  let int_start = !i in
  while !i < stop && is_digit (String.unsafe_get s !i) do
    incr i
  done;
  let digits = ref (!i - int_start) in
  if !i < stop && String.unsafe_get s !i = '.' then begin
    incr i;
    let frac_start = !i in
    while !i < stop && is_digit (String.unsafe_get s !i) do
      incr i
    done;
    digits := !digits + (!i - frac_start)
  end;
  let ok = ref (!digits > 0) in
  if !ok && !i < stop then begin
    (* only an exponent may follow the mantissa *)
    let e = String.unsafe_get s !i in
    if e = 'e' || e = 'E' then begin
      incr i;
      if !i < stop && (String.unsafe_get s !i = '+' || String.unsafe_get s !i = '-') then incr i;
      let exp_start = !i in
      while !i < stop && is_digit (String.unsafe_get s !i) do
        incr i
      done;
      ok := !i > exp_start
    end
  end;
  !ok && !i = stop

let parse_number c =
  let start = c.pos in
  let stop = number_end c.s start c.n in
  c.pos <- stop;
  if stop = start then fail c "expected a number";
  let raw = String.sub c.s start (stop - start) in
  if is_number c.s start stop then Num raw else fail c (Printf.sprintf "malformed number %S" raw)

let rec parse_value c =
  skip_ws c;
  if c.pos >= c.n then fail c "unexpected end of input"
  else
    match at c with
    | '{' ->
        c.pos <- c.pos + 1;
        skip_ws c;
        if looking_at c '}' then begin
          c.pos <- c.pos + 1;
          Obj []
        end
        else parse_fields c []
    | '[' ->
        c.pos <- c.pos + 1;
        skip_ws c;
        if looking_at c ']' then begin
          c.pos <- c.pos + 1;
          Arr []
        end
        else parse_items c []
    | '"' -> Str (parse_string c)
    | 't' -> literal c "true" (Bool true)
    | 'f' -> literal c "false" (Bool false)
    | 'n' -> literal c "null" Null
    | _ -> parse_number c

and parse_fields c acc =
  skip_ws c;
  let k = parse_string c in
  skip_ws c;
  expect c ':';
  let v = parse_value c in
  let acc = (k, v) :: acc in
  skip_ws c;
  if looking_at c ',' then begin
    c.pos <- c.pos + 1;
    parse_fields c acc
  end
  else if looking_at c '}' then begin
    c.pos <- c.pos + 1;
    Obj (List.rev acc)
  end
  else fail c "expected ',' or '}'"

and parse_items c acc =
  let acc = parse_value c :: acc in
  skip_ws c;
  if looking_at c ',' then begin
    c.pos <- c.pos + 1;
    parse_items c acc
  end
  else if looking_at c ']' then begin
    c.pos <- c.pos + 1;
    Arr (List.rev acc)
  end
  else fail c "expected ',' or ']'"

let parse ?len s =
  let n = match len with None -> String.length s | Some n -> n in
  if n < 0 || n > String.length s then invalid_arg "Json.parse: len outside the string";
  let c = { s; n; pos = 0 } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> c.n then fail c "trailing garbage";
  v

(* ---- emission ---- *)

(* A document is measured first, then written once into a buffer of
   the size measured: no regrowth copies, no final copy. *)

let escaped_length s =
  let len = ref 0 in
  for i = 0 to String.length s - 1 do
    len :=
      !len
      + (match String.unsafe_get s i with
        | '"' | '\\' | '\n' | '\r' | '\t' -> 2
        | ch when Char.code ch < 0x20 -> 6
        | _ -> 1)
  done;
  !len

let hex = "0123456789abcdef"

(* Each writer puts its text at offset [o] of [b] and returns the offset
   after it. *)

let put_char b o ch =
  Bytes.set b o ch;
  o + 1

let put_string b o s =
  Bytes.blit_string s 0 b o (String.length s);
  o + String.length s

let put_escaped b o s =
  let o = ref o in
  for i = 0 to String.length s - 1 do
    o :=
      match String.unsafe_get s i with
      | '"' -> put_string b !o "\\\""
      | '\\' -> put_string b !o "\\\\"
      | '\n' -> put_string b !o "\\n"
      | '\r' -> put_string b !o "\\r"
      | '\t' -> put_string b !o "\\t"
      | ch when Char.code ch < 0x20 ->
          let o = put_string b !o "\\u00" in
          put_char b (put_char b o hex.[Char.code ch lsr 4]) hex.[Char.code ch land 15]
      | ch -> put_char b !o ch
  done;
  !o

let put_quoted b o s = put_char b (put_escaped b (put_char b o '"') s) '"'

let rec length = function
  | Null | Bool true -> 4
  | Bool false -> 5
  | Num raw -> String.length raw
  | Str s -> escaped_length s + 2
  | Arr items ->
      (* the brackets, and a comma between items *)
      List.fold_left (fun acc v -> acc + 1 + length v) 1 items + if items = [] then 1 else 0
  | Obj fields ->
      List.fold_left (fun acc (k, v) -> acc + escaped_length k + 4 + length v) 1 fields
      + if fields = [] then 1 else 0

let rec write b o = function
  | Null -> put_string b o "null"
  | Bool true -> put_string b o "true"
  | Bool false -> put_string b o "false"
  | Num raw -> put_string b o raw
  | Str s -> put_quoted b o s
  | Arr [] -> put_string b o "[]"
  | Arr (v :: rest) -> put_char b (write_items b (write b (put_char b o '[') v) rest) ']'
  | Obj [] -> put_string b o "{}"
  | Obj (f :: rest) -> put_char b (write_fields b (write_field b (put_char b o '{') f) rest) '}'

and write_items b o = function
  | [] -> o
  | v :: rest -> write_items b (write b (put_char b o ',') v) rest

and write_field b o (k, v) = write b (put_char b (put_quoted b o k) ':') v

and write_fields b o = function
  | [] -> o
  | f :: rest -> write_fields b (write_field b (put_char b o ',') f) rest

let to_string v =
  let b = Bytes.create (length v) in
  ignore (write b 0 v : int);
  Bytes.unsafe_to_string b

(* ---- %.17g ---- *)

(* [Printf.sprintf "%.17g"] byte for byte, without [Printf] for
   1e-6 <= |x| < 1e16. There [x * 10^k] lands in [1e16, 1e17) for some
   0 <= k <= 22, and since 10^k is an exact double, one [Float.fma]
   gives the rounding error of the product exactly: x * 10^k = hi + lo.
   [hi] >= 2^53 is an integer and |lo| <= 8, so the integer part of the
   exact product and the comparison of its fraction with one half (for
   round-half-even to 17 digits, as glibc rounds) need no bignum. *)

let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
     1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let ipow10 = Array.init 18 (fun k -> int_of_float pow10.(k))
let lo17 = ipow10.(16) (* the smallest 17-digit integer *)
let hi17 = ipow10.(17)

(* Writes the 17 significant digits [d] (in [lo17, hi17)) of a number
   with decimal exponent [e] (in [-6, 15] on the fast path) in %.17g's
   layout: trailing zeros dropped, fixed notation for e >= -4, and
   "d.ddde-0X" below. *)
let[@cloudia.hot] layout17 ~neg d e =
  let nsig = ref 17 and t = ref d in
  while !t mod 10 = 0 do
    t := !t / 10;
    decr nsig
  done;
  let nsig = !nsig and sign = if neg then 1 else 0 in
  let expo = e < -4 in
  (* [ndig] digits go from offset [start], with the point before digit
     [dot] (17: no point) *)
  let ndig = if e >= nsig then e + 1 else nsig in
  let start = if e < 0 && not expo then sign + 1 - e else sign in
  let dot =
    if expo then if nsig > 1 then 1 else 17
    else if e >= 0 && nsig > e + 1 then e + 1
    else 17
  in
  let digits_end = start + ndig + if dot < 17 then 1 else 0 in
  let b = Bytes.create (if expo then digits_end + 4 else digits_end) in
  if neg then Bytes.unsafe_set b 0 '-';
  if start > sign then begin
    Bytes.unsafe_set b sign '0';
    Bytes.unsafe_set b (sign + 1) '.';
    Bytes.unsafe_fill b (sign + 2) (-e - 1) '0'
  end;
  if dot < 17 then Bytes.unsafe_set b (start + dot) '.';
  let t = ref (d / ipow10.(17 - ndig)) and p = ref (ndig - 1) in
  while !p >= 0 do
    let o = start + !p + if !p >= dot then 1 else 0 in
    Bytes.unsafe_set b o (Char.unsafe_chr (48 + (!t mod 10)));
    t := !t / 10;
    decr p
  done;
  if expo then Bytes.blit_string (if e = -5 then "e-05" else "e-06") 0 b digits_end 4;
  Bytes.unsafe_to_string b

(* The integer part of [ax * 10^k], exactly, for [hi = fl(ax * 10^k)]
   >= 2^53; [lo] is the product's exact rounding error. *)
let[@inline] int_part hi lo = int_of_float hi + int_of_float (Float.floor lo)

let rec fast17 ~neg ax k tries =
  if k < 0 || k > 22 || tries = 0 then Printf.sprintf "%.17g" (if neg then -.ax else ax)
  else
    let p = Array.unsafe_get pow10 k in
    let hi = ax *. p in
    (* [hi] >= 9.1e15 > 2^53 is an integer; [hi] <= 1.01e17 keeps |lo| <= 8 *)
    if hi < 9.1e15 then fast17 ~neg ax (k + 1) (tries - 1)
    else if hi > 1.01e17 then fast17 ~neg ax (k - 1) (tries - 1)
    else
      let lo = Float.fma ax p (-.hi) in
      let i = int_part hi lo in
      if i < lo17 then fast17 ~neg ax (k + 1) (tries - 1)
      else if i >= hi17 then fast17 ~neg ax (k - 1) (tries - 1)
      else
        let half = Float.floor lo +. 0.5 in
        let d = if lo > half then i + 1 else if lo < half then i else i + (i land 1) in
        (* Rounding up to 10^17 needs a double within 5e-18 relative
           below a power of ten; none is, in this range, but sprintf
           would get it right. *)
        if d = hi17 then Printf.sprintf "%.17g" (if neg then -.ax else ax)
        else layout17 ~neg d (16 - k)

let print17 x =
  let ax = Float.abs x in
  if ax >= 1e-6 && ax < 1e16 then
    fast17 ~neg:(x < 0.0) ax (16 - int_of_float (Float.floor (Float.log10 ax))) 3
  else Printf.sprintf "%.17g" x

let of_float f = if Float.is_finite f then Num (print17 f) else Null
let of_int i = Num (string_of_int i)
let of_int64 i = Num (Int64.to_string i)

(* ---- field accessors ---- *)

let member k = function Obj fields -> List.assoc_opt k fields | _ -> None

let str_field k obj =
  match member k obj with
  | Some (Str s) -> s
  | _ -> raise (Bad ("missing string field " ^ k))

let float_field ?default k obj =
  match (member k obj, default) with
  | Some (Num raw), _ -> float_of_string raw
  | Some Null, Some d | None, Some d -> d
  | _ -> raise (Bad ("missing number field " ^ k))

let int_field ?default k obj =
  match (member k obj, default) with
  | Some (Num raw), _ -> (
      match int_of_string_opt raw with
      | Some i -> i
      | None -> int_of_float (float_of_string raw))
  | Some Null, Some d | None, Some d -> d
  | _ -> raise (Bad ("missing integer field " ^ k))

let int64_field ?(default = 0L) k obj =
  match member k obj with
  | Some (Num raw) -> (
      match Int64.of_string_opt raw with
      | Some v -> v
      | None -> Int64.of_float (float_of_string raw))
  | _ -> default
