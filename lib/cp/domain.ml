type t = {
  universe : int;
  words : int array; (* 63 usable bits per word *)
}

let bits_per_word = 63

let word_count universe = (universe + bits_per_word - 1) / bits_per_word

let full universe =
  if universe < 0 then invalid_arg "Domain.full: negative universe";
  let nw = word_count universe in
  let words = Array.make (max nw 1) 0 in
  for v = 0 to universe - 1 do
    let w = v / bits_per_word and b = v mod bits_per_word in
    words.(w) <- words.(w) lor (1 lsl b)
  done;
  { universe; words }

let empty universe =
  if universe < 0 then invalid_arg "Domain.empty: negative universe";
  { universe; words = Array.make (max (word_count universe) 1) 0 }

let universe t = t.universe

let copy t = { universe = t.universe; words = Array.copy t.words }

let blit ~src ~dst =
  if src.universe <> dst.universe then invalid_arg "Domain.blit: universe mismatch";
  Array.blit src.words 0 dst.words 0 (Array.length src.words)

let check t v =
  if v < 0 || v >= t.universe then invalid_arg "Domain: value out of universe"

let mem t v =
  check t v;
  t.words.(v / bits_per_word) land (1 lsl (v mod bits_per_word)) <> 0

let remove t v =
  check t v;
  let w = v / bits_per_word and b = 1 lsl (v mod bits_per_word) in
  if t.words.(w) land b <> 0 then begin
    t.words.(w) <- t.words.(w) lxor b;
    true
  end
  else false

let add t v =
  check t v;
  let w = v / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (v mod bits_per_word))

let fix t v =
  check t v;
  Array.fill t.words 0 (Array.length t.words) 0;
  add t v

let popcount x =
  let rec go x acc = if x = 0 then acc else go (x land (x - 1)) (acc + 1) in
  go x 0

(* Index of the lowest set bit of a non-zero word, by binary search on the
   isolated bit. [lsr] keeps bit 62 (the sign bit) working. *)
let ctz w =
  let b = ref (w land -w) and n = ref 0 in
  if !b land 0xFFFF_FFFF = 0 then begin
    n := 32;
    b := !b lsr 32
  end;
  if !b land 0xFFFF = 0 then begin
    n := !n + 16;
    b := !b lsr 16
  end;
  if !b land 0xFF = 0 then begin
    n := !n + 8;
    b := !b lsr 8
  end;
  if !b land 0xF = 0 then begin
    n := !n + 4;
    b := !b lsr 4
  end;
  if !b land 0x3 = 0 then begin
    n := !n + 2;
    b := !b lsr 2
  end;
  if !b land 0x1 = 0 then !n + 1 else !n

let size t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let is_empty t =
  let words = t.words in
  let i = ref 0 in
  while !i < Array.length words && words.(!i) = 0 do
    incr i
  done;
  !i = Array.length words

let is_singleton t =
  (* Exactly one bit set across all words. *)
  let words = t.words in
  let seen = ref 0 and i = ref 0 in
  while !seen < 2 && !i < Array.length words do
    let w = words.(!i) in
    if w <> 0 then seen := if w land (w - 1) <> 0 then 2 else !seen + 1;
    incr i
  done;
  !seen = 1

let next t v =
  if v < 0 then invalid_arg "Domain.next: negative value";
  if v >= t.universe then -1
  else begin
    let words = t.words in
    let wi = ref (v / bits_per_word) in
    let w = ref (words.(!wi) land (-1 lsl (v mod bits_per_word))) in
    while !w = 0 && !wi < Array.length words - 1 do
      incr wi;
      w := words.(!wi)
    done;
    if !w = 0 then -1 else (!wi * bits_per_word) + ctz !w
  end

let min_value t =
  let v = next t 0 in
  if v < 0 then raise Not_found else v

(* Walks set bits only. Each word is read once, so [f] may remove the
   value it is given (or later ones) without disturbing the walk. *)
let iter f t =
  let words = t.words in
  for wi = 0 to Array.length words - 1 do
    let w = ref words.(wi) in
    while !w <> 0 do
      let low = !w land - !w in
      f ((wi * bits_per_word) + ctz low);
      w := !w lxor low
    done
  done

let fold f init t =
  let acc = ref init in
  iter (fun v -> acc := f !acc v) t;
  !acc

let to_list t = List.rev (fold (fun acc v -> v :: acc) [] t)

let keep_only t pred =
  let changed = ref false in
  iter (fun v -> if (not (pred v)) && remove t v then changed := true) t;
  !changed

let intersects_complement d bad =
  if d.universe <> bad.universe then invalid_arg "Domain.intersects_complement: universe mismatch";
  let result = ref false in
  (try
     for i = 0 to Array.length d.words - 1 do
       if d.words.(i) land lnot bad.words.(i) <> 0 then begin
         result := true;
         raise Exit
       end
     done
   with Exit -> ());
  !result

let subtract d bad =
  if d.universe <> bad.universe then invalid_arg "Domain.subtract: universe mismatch";
  let changed = ref false in
  for i = 0 to Array.length d.words - 1 do
    let nw = d.words.(i) land lnot bad.words.(i) in
    if nw <> d.words.(i) then begin
      d.words.(i) <- nw;
      changed := true
    end
  done;
  !changed

let equal a b =
  a.universe = b.universe
  &&
  let i = ref 0 in
  while !i < Array.length a.words && a.words.(!i) = b.words.(!i) do
    incr i
  done;
  !i = Array.length a.words

(* [@cloudia.hot]: the forbidden-pair propagator's non-singleton case, run
   on every binary constraint the queue pops. A member [j] of [d] is
   supported iff [other] has a value outside [conflicts.(j)]; the test
   reads words directly, so the loop builds no closure and no list. *)
let[@cloudia.hot] remove_unsupported d ~other ~conflicts =
  if d.universe <> other.universe then
    invalid_arg "Domain.remove_unsupported: universe mismatch";
  let nw = Array.length d.words in
  let other_w = other.words in
  let changed = ref false in
  let rest = ref 0 and kept = ref 0 in
  let supported = ref false and i = ref 0 in
  for wi = 0 to nw - 1 do
    rest := d.words.(wi);
    kept := !rest;
    while !rest <> 0 do
      let low = !rest land - !rest in
      rest := !rest lxor low;
      let bad = conflicts.((wi * bits_per_word) + ctz low).words in
      supported := false;
      i := 0;
      while (not !supported) && !i < nw do
        if other_w.(!i) land lnot bad.(!i) <> 0 then supported := true;
        incr i
      done;
      if not !supported then kept := !kept lxor low
    done;
    if !kept <> d.words.(wi) then begin
      d.words.(wi) <- !kept;
      changed := true
    end
  done;
  !changed
