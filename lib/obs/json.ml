(* Minimal JSON parser + emitter shared by the trace loader and the
   serve protocol. See the .mli for the contract.

   Both directions run at memory speed on the serve protocol's matrix
   frames (thousands of numbers per document): the scanner allocates
   nothing per byte, an array of numbers is read straight into a row of
   doubles by an exact decimal reader, and a row of doubles is printed
   as %.17g straight into the output buffer. Neither direction builds a
   string per number. *)

type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list
  | Floats of float array

exception Bad of string

(* ---- decimal literals ---- *)

(* A literal [+-]? (D+ ('.' D* )? | '.' D+) ([eE] [+-]? D+)? — strtod's
   decimal grammar — denotes man * 10^exp10, where [man] holds its first
   [max_digits] significant digits (10^18 < 2^62 fits an OCaml int) and
   [dropped] says whether a nonzero digit was cut after them. *)
type literal = {
  mutable neg : bool;
  mutable man : int;
  mutable exp10 : int;
  mutable dropped : bool;
  mutable integral : bool;  (** no fraction part and no exponent *)
}

let max_digits = 18
let new_literal () = { neg = false; man = 0; exp10 = 0; dropped = false; integral = true }

let[@inline] is_digit ch = ch >= '0' && ch <= '9'

(* Scans the literal at [s.[i..n)] into [l] and returns the index just
   past it, or -1 if none starts at [i]. Like strtod it stops at the
   first character that cannot extend the literal: "1e" scans as "1". *)
let[@cloudia.hot] scan l s i n =
  let i = ref i in
  let neg = !i < n && String.unsafe_get s !i = '-' in
  if !i < n && (neg || String.unsafe_get s !i = '+') then incr i;
  let man = ref 0 and nsig = ref 0 and exp10 = ref 0 and dropped = ref false in
  let frac = ref false and ndigits = ref 0 and more = ref true in
  while !more && !i < n do
    let ch = String.unsafe_get s !i in
    if is_digit ch then begin
      let d = Char.code ch - 48 in
      incr ndigits;
      if !nsig < max_digits then begin
        (* leading zeros are not significant *)
        if !man > 0 || d > 0 then begin
          man := (!man * 10) + d;
          incr nsig
        end;
        if !frac then decr exp10
      end
      else begin
        if not !frac then incr exp10;
        if d > 0 then dropped := true
      end;
      incr i
    end
    else if ch = '.' && not !frac then begin
      frac := true;
      incr i
    end
    else more := false
  done;
  if !ndigits = 0 then -1
  else begin
    l.integral <- not !frac;
    if !i < n && (String.unsafe_get s !i = 'e' || String.unsafe_get s !i = 'E') then begin
      let j = ref (!i + 1) in
      let eneg = !j < n && String.unsafe_get s !j = '-' in
      if !j < n && (eneg || String.unsafe_get s !j = '+') then incr j;
      let start = !j and e = ref 0 in
      while !j < n && is_digit (String.unsafe_get s !j) do
        (* past 10^8 the value is 0 or infinite whatever the digits *)
        if !e < 100_000_000 then e := (!e * 10) + (Char.code (String.unsafe_get s !j) - 48);
        incr j
      done;
      if !j > start then begin
        i := !j;
        l.integral <- false;
        exp10 := if eneg then !exp10 - !e else !exp10 + !e
      end
    end;
    l.neg <- neg;
    l.man <- !man;
    l.exp10 <- !exp10;
    l.dropped <- !dropped;
    !i
  end

(* ---- decimal to double ---- *)

(* Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second",
   2021): the nearest double to man * 10^q comes from the top bits of
   man, normalized to 64 bits, times a 128-bit truncation of 10^q. The
   truncation errs low by less than one unit, so the product errs low by
   less than man units of its lowest word; the kernel answers only when
   no such error can move a rounding decision, and -1 otherwise. *)

let q_min = -342
let q_max = 308

(* For q in [q_min, q_max], the 128 leading bits of 10^q, truncated:
   high word at 2(q - q_min), low word after it. Built with a bignum of
   32-bit limbs — 5^q for q >= 0, floor(2^1024 / 5^-q) below — and each
   entry's binary exponent is checked against the formula
   [eisel_lemire] uses, floor(log2 10^q) = (217706 q) asr 16. *)
let pow10_128 =
  let table = Bigarray.Array1.create Bigarray.int64 Bigarray.c_layout (2 * (q_max - q_min + 1)) in
  let limbs = 40 in
  let bit_len x =
    let top = ref (limbs - 1) in
    while x.(!top) = 0 do
      decr top
    done;
    let b = ref 0 in
    while x.(!top) lsr !b > 1 do
      incr b
    done;
    (32 * !top) + !b + 1
  in
  let bit x i = if i < 0 then 0 else (x.(i / 32) lsr (i mod 32)) land 1 in
  (* the 64 bits of x below bit [top] *)
  let word x top =
    let w = ref 0L in
    for i = top - 1 downto top - 64 do
      w := Int64.logor (Int64.shift_left !w 1) (Int64.of_int (bit x i))
    done;
    !w
  in
  let store q x ~log2 =
    let l = bit_len x in
    if (217706 * q) asr 16 <> log2 l then failwith "Json: power-of-ten exponent formula";
    Bigarray.Array1.set table (2 * (q - q_min)) (word x l);
    Bigarray.Array1.set table ((2 * (q - q_min)) + 1) (word x (l - 64))
  in
  let x = Array.make limbs 0 in
  x.(0) <- 1;
  for q = 0 to q_max do
    if q > 0 then begin
      let carry = ref 0 in
      for i = 0 to limbs - 1 do
        let v = (x.(i) * 5) + !carry in
        x.(i) <- v land 0xFFFF_FFFF;
        carry := v lsr 32
      done
    end;
    store q x ~log2:(fun l -> q + l - 1)
  done;
  let x = Array.make limbs 0 in
  x.(1024 / 32) <- 1;
  for k = 1 to -q_min do
    let r = ref 0 in
    for i = limbs - 1 downto 0 do
      let v = (!r lsl 32) lor x.(i) in
      x.(i) <- v / 5;
      r := v mod 5
    done;
    store (-k) x ~log2:(fun l -> -k - 1024 + l - 1)
  done;
  table

(* unsigned [a < b] *)
let[@inline] ult (a : int64) (b : int64) =
  Int64.logxor a Int64.min_int < Int64.logxor b Int64.min_int

(* The high word of the unsigned 128-bit product [a * b]. *)
let[@inline] mul_hi a b =
  let open Int64 in
  let mask = 0xFFFF_FFFFL in
  let a0 = logand a mask and a1 = shift_right_logical a 32 in
  let b0 = logand b mask and b1 = shift_right_logical b 32 in
  let p01 = mul a0 b1 and p10 = mul a1 b0 in
  let mid =
    add (add (shift_right_logical (mul a0 b0) 32) (logand p01 mask)) (logand p10 mask)
  in
  add
    (add (mul a1 b1) (shift_right_logical p01 32))
    (add (shift_right_logical p10 32) (shift_right_logical mid 32))

(* The number of significant bits of [x] > 0. *)
let[@inline] bit_length x =
  let n = ref 0 and x = ref x in
  if !x lsr 32 <> 0 then begin
    n := 32;
    x := !x lsr 32
  end;
  if !x lsr 16 <> 0 then begin
    n := !n + 16;
    x := !x lsr 16
  end;
  if !x lsr 8 <> 0 then begin
    n := !n + 8;
    x := !x lsr 8
  end;
  if !x lsr 4 <> 0 then begin
    n := !n + 4;
    x := !x lsr 4
  end;
  if !x lsr 2 <> 0 then begin
    n := !n + 2;
    x := !x lsr 2
  end;
  if !x lsr 1 <> 0 then begin
    n := !n + 1;
    x := !x lsr 1
  end;
  !n + !x

(* The IEEE bits, sign excluded, of the double nearest to man * 10^q for
   1 <= man <= 10^18 and q in [q_min, q_max]; -1 when 128 bits of 10^q
   cannot decide, at an exact halfway point, or when the result is
   subnormal or infinite. The bits of a normal double fit 63 bits, so
   they travel as an int, negative from 2.0 up; -1 would be a NaN. *)
let[@cloudia.hot] eisel_lemire man q =
  let clz = 64 - bit_length man in
  let m = Int64.shift_left (Int64.of_int man) clz in
  let i = 2 * (q - q_min) in
  let t_hi = Bigarray.Array1.unsafe_get pow10_128 i in
  let x_hi = ref (mul_hi m t_hi) and x_lo = ref (Int64.mul m t_hi) in
  let undecided = ref false in
  (* Below [x_lo] the product lacks less than [m]: only a carry out of
     [x_lo] into nine set bits of [x_hi] could reach the rounding bit. *)
  if Int64.logand !x_hi 0x1FFL = 0x1FFL && ult (Int64.add !x_lo m) m then begin
    let t_lo = Bigarray.Array1.unsafe_get pow10_128 (i + 1) in
    let y_hi = mul_hi m t_lo and y_lo = Int64.mul m t_lo in
    let lo = Int64.add !x_lo y_hi in
    if ult lo !x_lo then x_hi := Int64.succ !x_hi;
    x_lo := lo;
    if Int64.logand !x_hi 0x1FFL = 0x1FFL && lo = -1L && ult (Int64.add y_lo m) m then
      undecided := true
  end;
  let msb = Int64.to_int (Int64.shift_right_logical !x_hi 63) in
  (* 54 bits: the 53 of the result and the rounding bit *)
  let mant = Int64.to_int (Int64.shift_right_logical !x_hi (msb + 9)) in
  let exp2 = ((217706 * q) asr 16) + 64 + 1023 - clz - (1 lxor msb) in
  if !undecided || (!x_lo = 0L && Int64.logand !x_hi 0x1FFL = 0L && mant land 3 = 1) then -1
  else
    let mant = (mant + (mant land 1)) lsr 1 in
    let over = mant lsr 53 in
    let mant = mant lsr over and exp2 = exp2 + over in
    if exp2 <= 0 || exp2 >= 0x7FF then -1 else (exp2 lsl 52) lor (mant land 0xF_FFFF_FFFF_FFFF)

(* 10^k for k <= 22: the powers of ten a double holds exactly. *)
let pow10 =
  [| 1e0; 1e1; 1e2; 1e3; 1e4; 1e5; 1e6; 1e7; 1e8; 1e9; 1e10; 1e11; 1e12; 1e13; 1e14; 1e15;
     1e16; 1e17; 1e18; 1e19; 1e20; 1e21; 1e22 |]

let[@inline] of_bits b = Int64.float_of_bits (Int64.logand (Int64.of_int b) Int64.max_int)

(* Stores the double [l] denotes in [dst.(k)] and returns true, or
   returns false, storing nothing, when only [float_of_string] can tell. *)
let[@cloudia.hot] exact_value l dst k =
  let man = l.man and q = l.exp10 in
  let v =
    if man = 0 then 0.0
    else if q > q_max then Float.infinity (* >= 10^309 *)
    else if q < q_min then 0.0 (* < 10^18 * 10^-343, under half the least subnormal *)
    else if (not l.dropped) && man < 1 lsl 53 && q >= -22 && q <= 22 then
      (* both factors exact: one correctly rounded operation *)
      if q >= 0 then float_of_int man *. Array.unsafe_get pow10 q
      else float_of_int man /. Array.unsafe_get pow10 (-q)
    else
      let b = eisel_lemire man q in
      (* cut digits put the value strictly between man and man + 1 *)
      if b = -1 || (l.dropped && eisel_lemire (man + 1) q <> b) then Float.nan else of_bits b
  in
  if Float.is_nan v then false
  else begin
    Array.unsafe_set dst k (if l.neg then -.v else v);
    true
  end

let read_exact raw =
  let l = new_literal () and dst = [| 0.0 |] in
  let n = String.length raw in
  if scan l raw 0 n = n && exact_value l dst 0 then Some dst.(0) else None

let number raw = match read_exact raw with Some v -> v | None -> float_of_string raw

(* ---- parsing ---- *)

type cursor = {
  s : string;
  n : int;
  mutable pos : int;
  lit : literal;
  mutable row : float array;  (** scratch for {!scan_row} *)
}

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

let[@inline] is_number_char = function
  | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
  | _ -> false

(* The end of the run of number characters [0-9+-.eE] from [i]. *)
let[@cloudia.hot] number_end s i n =
  let i = ref i in
  while !i < n && is_number_char (String.unsafe_get s !i) do
    incr i
  done;
  !i

(* A number is a run of number characters that is, as a whole, one
   literal: the grammar [float_of_string_opt] accepts. *)
let parse_number c =
  let start = c.pos in
  let stop = number_end c.s start c.n in
  c.pos <- stop;
  if stop = start then fail c "expected a number";
  let raw = String.sub c.s start (stop - start) in
  if scan c.lit c.s start stop = stop then Num raw
  else fail c (Printf.sprintf "malformed number %S" raw)

let grow_row c =
  let row = Array.make (max 16 (2 * Array.length c.row)) 0.0 in
  Array.blit c.row 0 row 0 (Array.length c.row);
  c.row <- row

(* The shortest array read into [Floats]. Shorter ones, such as a
   graph edge's [src, dst] pair, keep every literal's spelling, so an
   error about one of their numbers can quote it. *)
let min_row = 3

(* [c.pos] is past a '[' and its whitespace, not at ']'. An array of at
   least [min_row] numbers and nulls of which at least one is a null or
   a literal with a fraction or an exponent is read into [Floats], each
   number converted where it lies in [c.s]. Any other array — integer
   literals keep their spelling, other values their constructors — and
   any error gives [None] with [c.pos] unmoved, and the generic path
   parses the array again and reports the error where the scan left
   it. *)
let[@cloudia.hot] scan_row c =
  let start = c.pos and k = ref 0 and integral = ref true and ok = ref true and closed = ref false in
  while !ok && not !closed do
    if !k = Array.length c.row then grow_row c;
    (if
       c.pos + 4 <= c.n
       && at c = 'n'
       && String.unsafe_get c.s (c.pos + 1) = 'u'
       && String.unsafe_get c.s (c.pos + 2) = 'l'
       && String.unsafe_get c.s (c.pos + 3) = 'l'
     then begin
       Array.unsafe_set c.row !k Float.nan;
       integral := false;
       c.pos <- c.pos + 4
     end
     else
       let stop = scan c.lit c.s c.pos c.n in
       if stop < 0 || (stop < c.n && is_number_char (String.unsafe_get c.s stop)) then ok := false
       else begin
         if not c.lit.integral then integral := false;
         if not (exact_value c.lit c.row !k) then
           Array.unsafe_set c.row !k (float_of_string (String.sub c.s c.pos (stop - c.pos)));
         c.pos <- stop
       end);
    if !ok then begin
      incr k;
      skip_ws c;
      if looking_at c ',' then begin
        c.pos <- c.pos + 1;
        skip_ws c
      end
      else if looking_at c ']' then begin
        c.pos <- c.pos + 1;
        closed := true
      end
      else ok := false
    end
  done;
  if !ok && (not !integral) && !k >= min_row then Some (Floats (Array.sub c.row 0 !k))
  else begin
    c.pos <- start;
    None
  end

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
    | '[' -> (
        c.pos <- c.pos + 1;
        skip_ws c;
        if looking_at c ']' then begin
          c.pos <- c.pos + 1;
          Arr []
        end
        else match scan_row c with Some row -> row | None -> parse_items c [])
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
  let c = { s; n; pos = 0; lit = new_literal (); row = [||] } in
  let v = parse_value c in
  skip_ws c;
  if c.pos <> c.n then fail c "trailing garbage";
  v

(* ---- %.17g ---- *)

(* [Printf.sprintf "%.17g"] byte for byte, without [Printf] for
   1e-6 <= |x| < 1e16. There [x * 10^k] lands in [1e16, 1e17) for some
   0 <= k <= 22, and since 10^k is an exact double, one [Float.fma]
   gives the rounding error of the product exactly: x * 10^k = hi + lo.
   [hi] >= 2^53 is an integer and |lo| <= 8, so the integer part of the
   exact product and the comparison of its fraction with one half (for
   round-half-even to 17 digits, as glibc rounds) need no bignum. *)

let ipow10 = Array.init 18 (fun k -> int_of_float pow10.(k))
let lo17 = ipow10.(16) (* the smallest 17-digit integer *)
let hi17 = ipow10.(17)

(* floor [x] for |x| <= 8. Here and below, [Bool.to_int] of a
   comparison keeps an unpredictable branch out of the digit loop. *)
let[@inline] floor_small x =
  let t = int_of_float x in
  t - Bool.to_int (float_of_int t > x)

(* For finite 1e-6 <= ax < 1e16: its 17 significant digits [d] in
   [lo17, hi17) and decimal exponent [e] in [-6, 15], packed as
   [d lsl 5 lor (e + 6)] (10^17 * 32 < 2^62); -1 when [sprintf] must
   decide. The first guess of k reads the binary exponent, so it may be
   one too large; the loop corrects it. *)
let[@cloudia.hot] [@inline] digits17 ax =
  let e2 = (Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float ax) 52) land 0x7ff) - 1023 in
  let k0 = 16 - ((e2 * 78913) asr 18) in
  let k = ref (if k0 > 22 then 22 else k0) in
  let result = ref (-1) and tries = ref 3 in
  while !tries > 0 do
    decr tries;
    let kk = !k in
    if kk < 0 || kk > 22 then tries := 0
    else begin
      let p = Array.unsafe_get pow10 kk in
      let hi = ax *. p in
      (* [hi] >= 9.1e15 > 2^53 is an integer; [hi] <= 1.01e17 keeps |lo| <= 8 *)
      if hi < 9.1e15 then incr k
      else if hi > 1.01e17 then decr k
      else begin
        let lo = Float.fma ax p (-.hi) in
        let fl = floor_small lo in
        let i = int_of_float hi + fl in
        if i < lo17 then incr k
        else if i >= hi17 then decr k
        else begin
          let half = float_of_int fl +. 0.5 in
          let d = i + Bool.to_int (lo > half) + (Bool.to_int (lo = half) land i) in
          (* Rounding up to 10^17 needs a double within 5e-18 relative
             below a power of ten; none is, in this range, but sprintf
             would get it right. *)
          if d < hi17 then result := (d lsl 5) lor (16 - kk + 6);
          tries := 0
        end
      end
    end
  done;
  !result

(* The eight decimal digits of [v] < 10^8 as ASCII, first digit in the
   low byte: the 4-digit halves go in 32-bit lanes, each splits into
   16-bit lanes of two digits and those into bytes, each split one
   multiply-shift (x / 100 = x * 5243 >> 19 for x < 10^4, and
   x / 10 = x * 103 >> 10 for x < 100). *)
let[@inline] ascii8 v =
  let open Int64 in
  let x = logor (of_int (v / 10_000)) (shift_left (of_int (v mod 10_000)) 32) in
  let h = logand (shift_right_logical (mul x 5243L) 19) 0x7F_0000_007FL in
  let x = logor h (shift_left (sub x (mul h 100L)) 16) in
  let t = logand (shift_right_logical (mul x 103L) 10) 0x000F_000F_000F_000FL in
  let x = logor t (shift_left (sub x (mul t 10L)) 8) in
  logor x 0x3030_3030_3030_3030L

(* The 17 digits of [d] in [lo17, hi17) at [b.[o..o+17)]. *)
let[@inline] put_17_digits b o d =
  let top = d / 10_000_000_000_000_000 and rest = d mod 10_000_000_000_000_000 in
  Bytes.unsafe_set b o (Char.unsafe_chr (48 + top));
  Bytes.set_int64_le b (o + 1) (ascii8 (rest / 100_000_000));
  Bytes.set_int64_le b (o + 9) (ascii8 (rest mod 100_000_000))

(* The number of significant digits of [d] in [lo17, hi17), trailing
   zeros not counted. *)
let[@inline] significant d =
  let t = ref d and nsig = ref 17 in
  while !t mod 10 = 0 do
    t := !t / 10;
    decr nsig
  done;
  !nsig

(* %.17g's layout of 17 digits [d] with exponent [e] in [-6, 15] —
   trailing zeros dropped, "d.ddde-0X" below e = -4, fixed above —
   written at [b.[o]], which has room for 24 bytes; returns the offset
   after it. All 17 digits are written, those past the [nsig]
   significant ones being zeros or scratch the layout then overwrites or
   ends before; digits before a point are written one byte right and
   moved left over it. *)
let[@cloudia.hot] put_layout b o ~neg d e =
  let nsig = significant d in
  let o =
    if neg then begin
      Bytes.unsafe_set b o '-';
      o + 1
    end
    else o
  in
  if e < -4 then begin
    put_17_digits b (o + 1) d;
    Bytes.unsafe_set b o (Bytes.unsafe_get b (o + 1));
    let o =
      if nsig > 1 then begin
        Bytes.unsafe_set b (o + 1) '.';
        o + 1 + nsig
      end
      else o + 1
    in
    Bytes.unsafe_set b o 'e';
    Bytes.unsafe_set b (o + 1) '-';
    Bytes.unsafe_set b (o + 2) '0';
    Bytes.unsafe_set b (o + 3) (Char.unsafe_chr (48 - e));
    o + 4
  end
  else if e < 0 then begin
    Bytes.unsafe_set b o '0';
    Bytes.unsafe_set b (o + 1) '.';
    for j = 2 to -e do
      Bytes.unsafe_set b (o + j) '0'
    done;
    put_17_digits b (o + 1 - e) d;
    o + 1 - e + nsig
  end
  else if nsig <= e + 1 then begin
    put_17_digits b o d;
    o + e + 1
  end
  else begin
    put_17_digits b (o + 1) d;
    for j = 0 to e do
      Bytes.unsafe_set b (o + j) (Bytes.unsafe_get b (o + j + 1))
    done;
    Bytes.unsafe_set b (o + e + 1) '.';
    o + 1 + nsig
  end

(* for ±0 *)
let[@inline] sign_bit x = 1.0 /. x < 0.0
let[@inline] fast_range ax = ax >= 1e-6 && ax < 1e16

(* The digits of finite [x] <> 0 on the fast path, or -1. *)
let[@inline] packed17 x =
  let ax = Float.abs x in
  if fast_range ax then digits17 ax else -1

(* %.17g of finite [x] at [b.[o]], which has room for 24 bytes (the
   longest, "-2.2250738585072014e-308", is 24). *)
let[@inline] put17 b o x =
  if x = 0.0 then begin
    if sign_bit x then begin
      Bytes.unsafe_set b o '-';
      Bytes.unsafe_set b (o + 1) '0';
      o + 2
    end
    else begin
      Bytes.unsafe_set b o '0';
      o + 1
    end
  end
  else
    let p = packed17 x in
    if p >= 0 then put_layout b o ~neg:(x < 0.0) (p lsr 5) ((p land 31) - 6)
    else begin
      let s = Printf.sprintf "%.17g" x in
      Bytes.blit_string s 0 b o (String.length s);
      o + String.length s
    end

let print17 x =
  let b = Bytes.create 24 in
  Bytes.sub_string b 0 (put17 b 0 x)

(* ---- emission ---- *)

(* The writer owns [w.b] from [w.o] on: a cell printed in place leaves
   scratch digits past its text, and when the text needs more room than
   [w.b] has, [w.b] is replaced by a copy at least twice its size. *)
type writer = { mutable b : bytes; mutable o : int }

(* Room for [k] more bytes at [w.o]. *)
let reserve w k =
  let need = w.o + k in
  if need > Bytes.length w.b then begin
    let b = Bytes.create (max need (2 * Bytes.length w.b)) in
    Bytes.blit w.b 0 b 0 w.o;
    w.b <- b
  end

let put_char w ch =
  reserve w 1;
  Bytes.set w.b w.o ch;
  w.o <- w.o + 1

let put_string w s =
  reserve w (String.length s);
  Bytes.blit_string s 0 w.b w.o (String.length s);
  w.o <- w.o + String.length s

let hex = "0123456789abcdef"

let put_quoted w s =
  put_char w '"';
  String.iter
    (function
      | '"' -> put_string w "\\\""
      | '\\' -> put_string w "\\\\"
      | '\n' -> put_string w "\\n"
      | '\r' -> put_string w "\\r"
      | '\t' -> put_string w "\\t"
      | ch when Char.code ch < 0x20 ->
          put_string w "\\u00";
          put_char w hex.[Char.code ch lsr 4];
          put_char w hex.[Char.code ch land 15]
      | ch -> put_char w ch)
    s;
  put_char w '"'

(* A cell takes at most 24 bytes (%.17g's longest text,
   "-2.2250738585072014e-308", and the scratch digits [put17] may leave
   past a shorter one) and its comma: room for the whole row is made
   once. NaN is null and ±infinity is ±1e999. *)
let[@cloudia.hot] put_floats w cells =
  let n = Array.length cells in
  reserve w ((25 * n) + 2);
  let b = w.b and o = ref w.o in
  Bytes.unsafe_set b !o '[';
  incr o;
  for i = 0 to n - 1 do
    if i > 0 then begin
      Bytes.unsafe_set b !o ',';
      incr o
    end;
    let x = Array.unsafe_get cells i in
    if Float.is_finite x then o := put17 b !o x
    else begin
      let lit = if Float.is_nan x then "null" else if x > 0.0 then "1e999" else "-1e999" in
      Bytes.unsafe_blit_string lit 0 b !o (String.length lit);
      o := !o + String.length lit
    end
  done;
  Bytes.unsafe_set b !o ']';
  w.o <- !o + 1

let rec put w = function
  | Null -> put_string w "null"
  | Bool true -> put_string w "true"
  | Bool false -> put_string w "false"
  | Num raw -> put_string w raw
  | Str s -> put_quoted w s
  | Arr [] -> put_string w "[]"
  | Arr (v :: rest) ->
      put_char w '[';
      put w v;
      put_items w rest;
      put_char w ']'
  | Obj [] -> put_string w "{}"
  | Obj (f :: rest) ->
      put_char w '{';
      put_field w f;
      put_fields w rest;
      put_char w '}'
  | Floats cells -> put_floats w cells

and put_items w = function
  | [] -> ()
  | v :: rest ->
      put_char w ',';
      put w v;
      put_items w rest

and put_field w (k, v) =
  put_quoted w k;
  put_char w ':';
  put w v

and put_fields w = function
  | [] -> ()
  | f :: rest ->
      put_char w ',';
      put_field w f;
      put_fields w rest

let write b off v =
  if off < 0 || off > Bytes.length b then invalid_arg "Json.write: offset outside the buffer";
  let w = { b; o = off } in
  put w v;
  (w.b, w.o)

(* ---- spare buffers ---- *)

(* One slot per use, holding the largest buffer seen up to
   [spare_limit]. Whoever takes the spare uses it, and a concurrent
   taker starts a fresh buffer of its own. A buffer goes back only if
   it is larger than the spare there, so a small document cannot evict
   a large spare. *)
type spare = bytes Atomic.t

let spare_limit = 1 lsl 20
let spare () = Atomic.make Bytes.empty

let take spare size =
  let b = Atomic.exchange spare Bytes.empty in
  if Bytes.length b > 0 then b else Bytes.create size

let rec give_back spare b =
  let held = Atomic.get spare in
  if
    Bytes.length b > Bytes.length held
    && Bytes.length b <= spare_limit
    && not (Atomic.compare_and_set spare held b)
  then give_back spare b

(* The text is copied out before the buffer goes back: from then on
   another domain may write into it. *)
let string_spare = spare ()

let to_string v =
  let b, n = write (take string_spare 256) 0 v in
  let s = Bytes.sub_string b 0 n in
  give_back string_spare b;
  s

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
  | Some (Num raw), _ -> number raw
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
