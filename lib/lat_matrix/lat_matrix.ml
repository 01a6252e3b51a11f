(* See the .mli for the format and the design notes. In memory the matrix
   is always a float64 Bigarray.Array2 (C layout, outside the OCaml heap),
   so kernels never dispatch on the storage mode and float64 arithmetic is
   bit-identical to the historical boxed representation; the [storage] tag
   only selects the on-disk element width, with Float32 values quantized
   once at construction so disk round trips are exact. *)

type storage = Float64 | Float32

let storage_to_string = function Float64 -> "float64" | Float32 -> "float32"

let storage_of_string = function
  | "float64" | "f64" -> Some Float64
  | "float32" | "f32" -> Some Float32
  | _ -> None

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t

type t = { data : buffer; storage : storage }

let storage t = t.storage
let dim t = Bigarray.Array2.dim1 t.data
let data t = t.data

let quantize mode v =
  match mode with
  | Float64 -> v
  | Float32 -> Int32.float_of_bits (Int32.bits_of_float v)

let create ?(storage = Float64) n =
  if n < 0 then invalid_arg "Lat_matrix.create: negative dimension";
  let data = Bigarray.Array2.create Bigarray.float64 Bigarray.c_layout n n in
  Bigarray.Array2.fill data 0.0;
  { data; storage }

let init ?(storage = Float64) n f =
  let t = create ~storage n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Bigarray.Array2.unsafe_set t.data i j (quantize storage (f i j))
    done
  done;
  t

let of_arrays ?(storage = Float64) rows =
  let n = Array.length rows in
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg
          (Printf.sprintf "Lat_matrix.of_arrays: row %d has %d entries, expected %d" i
             (Array.length row) n))
    rows;
  init ~storage n (fun i j -> rows.(i).(j))

let to_arrays t =
  let n = dim t in
  Array.init n (fun i -> Array.init n (fun j -> Bigarray.Array2.unsafe_get t.data i j))

let with_storage mode t = init ~storage:mode (dim t) (fun i j -> Bigarray.Array2.unsafe_get t.data i j)

let get t i j =
  let n = dim t in
  if i < 0 || i >= n || j < 0 || j >= n then
    invalid_arg (Printf.sprintf "Lat_matrix.get: (%d, %d) outside %dx%d" i j n n);
  Bigarray.Array2.unsafe_get t.data i j

let[@inline] unsafe_get t i j = Bigarray.Array2.unsafe_get t.data i j

let set t i j v =
  let n = dim t in
  if i < 0 || i >= n || j < 0 || j >= n then
    invalid_arg (Printf.sprintf "Lat_matrix.set: (%d, %d) outside %dx%d" i j n n);
  Bigarray.Array2.unsafe_set t.data i j v

let[@inline] add t i j v =
  Bigarray.Array2.set t.data i j (Bigarray.Array2.get t.data i j +. v)

let row t i = Bigarray.Array2.slice_left t.data i

let iter f t =
  let n = dim t in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      f i j (Bigarray.Array2.unsafe_get t.data i j)
    done
  done

let off_diagonal t =
  let n = dim t in
  let out = Array.make (max 0 (n * (n - 1))) 0.0 in
  let k = ref 0 in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j then begin
        out.(!k) <- Bigarray.Array2.unsafe_get t.data i j;
        incr k
      end
    done
  done;
  out

let equal a b =
  dim a = dim b
  &&
  let n = dim a in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if
        Int64.bits_of_float (Bigarray.Array2.unsafe_get a.data i j)
        <> Int64.bits_of_float (Bigarray.Array2.unsafe_get b.data i j)
      then ok := false
    done
  done;
  !ok

(* FNV-1a over the float64 bit patterns in row-major order, seeded with
   the dimension. Bit-level, so +0.0 vs -0.0 and distinct NaN payloads
   hash apart — exactly the distinctions [equal] draws. Each word is
   mixed as its 8 little-endian bytes. The accumulator is a local ref
   that never escapes, so it stays an unboxed register: the whole hash
   allocates only its result. *)
let fingerprint t =
  let n = dim t in
  let h = ref 0xcbf29ce484222325L in
  for c = -1 to (n * n) - 1 do
    let v =
      if c < 0 then Int64.of_int n
      else Int64.bits_of_float (Bigarray.Array2.unsafe_get t.data (c / n) (c mod n))
    in
    for k = 0 to 7 do
      let byte = Int64.logand (Int64.shift_right_logical v (8 * k)) 0xffL in
      h := Int64.mul (Int64.logxor !h byte) 0x100000001b3L
    done
  done;
  !h

let fingerprint_hex t = Printf.sprintf "%016Lx" (fingerprint t)

(* ---------- rank table ---------- *)

module Ranks = struct
  (* [values]: rank -> distinct off-diagonal value, ascending; [m]: the
     matrix's dimension; [table]: flat [j * m + j'] -> that cell's rank. *)
  type nonrec t = { values : float array; m : int; table : int array }

  (* The off-diagonal cell indices are sorted by an order-preserving
     64-bit key (every NaN is 0, ±0 share +0's key, other values flip the
     sign bit if positive and every bit if negative), so unsigned key
     order is [Float.compare]'s order and equal keys are compare-equal
     cells. The sort is a stable LSD radix sort over the key's 8 bytes,
     the key held as two 32-bit halves in [keys.(2c)] (low) and
     [keys.(2c + 1)] (high); a byte every key shares skips its pass.
     Stability keeps each class's cells in row-major order, so the first
     cell of a run is the class's value: the first one met in a
     row-major scan. *)
  let[@cloudia.hot] of_matrix { data; _ } =
    let m = Bigarray.Array2.dim1 data in
    let len = max 0 (m * (m - 1)) in
    let keys = Array.make (2 * m * m) 0 in
    let off = Array.make len 0 and tmp = Array.make len 0 in
    let hist = Array.make (8 * 256) 0 in
    let k = ref 0 in
    for j = 0 to m - 1 do
      for j' = 0 to m - 1 do
        if j <> j' then begin
          let c = (j * m) + j' in
          let x = Bigarray.Array2.unsafe_get data j j' in
          let bits = Int64.bits_of_float x in
          let key =
            if x <> x then 0L
            else if x = 0.0 then Int64.min_int
            else if bits >= 0L then Int64.logxor bits Int64.min_int
            else Int64.lognot bits
          in
          let lo = Int64.to_int key land 0xffff_ffff in
          let hi = Int64.to_int (Int64.shift_right_logical key 32) in
          keys.(2 * c) <- lo;
          keys.((2 * c) + 1) <- hi;
          for p = 0 to 3 do
            let d = (p * 256) + ((lo lsr (8 * p)) land 0xff) in
            hist.(d) <- hist.(d) + 1;
            let d = ((p + 4) * 256) + ((hi lsr (8 * p)) land 0xff) in
            hist.(d) <- hist.(d) + 1
          done;
          off.(!k) <- c;
          incr k
        end
      done
    done;
    let src = ref off and dst = ref tmp and sum = ref 0 in
    for p = 0 to 7 do
      let half = p lsr 2 and shift = 8 * (p land 3) and base = p * 256 in
      if len > 0 && hist.(base + ((keys.((2 * off.(0)) + half) lsr shift) land 0xff)) < len
      then begin
        sum := 0;
        for d = base to base + 255 do
          let c = hist.(d) in
          hist.(d) <- !sum;
          sum := !sum + c
        done;
        let s = !src and t = !dst in
        for q = 0 to len - 1 do
          let c = s.(q) in
          let d = base + ((keys.((2 * c) + half) lsr shift) land 0xff) in
          t.(hist.(d)) <- c;
          hist.(d) <- hist.(d) + 1
        done;
        src := t;
        dst := s
      end
    done;
    let sorted = !src in
    let table = Array.make (m * m) 0 in
    let top = ref (-1) in
    for q = 0 to len - 1 do
      let c = sorted.(q) and b = sorted.(max 0 (q - 1)) in
      if q = 0 || keys.(2 * b) <> keys.(2 * c) || keys.((2 * b) + 1) <> keys.((2 * c) + 1)
      then incr top;
      table.(c) <- !top
    done;
    let values = Array.make (!top + 1) 0.0 in
    for q = len - 1 downto 0 do
      let c = sorted.(q) in
      values.(table.(c)) <- Bigarray.Array2.unsafe_get data (c / m) (c mod m)
    done;
    { values; m; table }

  let reuse r lat =
    match r with
    | None -> of_matrix lat
    | Some r when r.m = dim lat -> r
    | Some r ->
        invalid_arg
          (Printf.sprintf "Lat_matrix.Ranks: table for %d instances, matrix has %d" r.m (dim lat))

  let values r = r.values
  let table r = r.table
end

(* ---------- binary I/O ---------- *)

let magic = "CLDALAT1"
let header_bytes = 64
let format_version = 1

let storage_tag = function Float64 -> 0 | Float32 -> 1

let elem_bytes = function Float64 -> 8 | Float32 -> 4

let write_binary path t =
  let n = dim t in
  let oc = Out_channel.open_bin path in
  Fun.protect ~finally:(fun () -> Out_channel.close oc) @@ fun () ->
  let header = Bytes.make header_bytes '\000' in
  Bytes.blit_string magic 0 header 0 (String.length magic);
  Bytes.set_int32_le header 8 (Int32.of_int format_version);
  Bytes.set_int32_le header 12 (Int32.of_int (storage_tag t.storage));
  Bytes.set_int32_le header 16 (Int32.of_int n);
  Bytes.set_int32_le header 20 (Int32.of_int n);
  Out_channel.output_bytes oc header;
  (* One reused row buffer; [set_int*_le] keeps the payload little-endian
     on every host. *)
  let w = elem_bytes t.storage in
  let rowbuf = Bytes.create (max 1 (n * w)) in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      let v = Bigarray.Array2.unsafe_get t.data i j in
      match t.storage with
      | Float64 -> Bytes.set_int64_le rowbuf (j * 8) (Int64.bits_of_float v)
      | Float32 -> Bytes.set_int32_le rowbuf (j * 4) (Int32.bits_of_float v)
    done;
    Out_channel.output oc rowbuf 0 (n * w)
  done

let read_header bytes =
  if Bytes.length bytes < header_bytes then Error "truncated header"
  else if Bytes.sub_string bytes 0 (String.length magic) <> magic then
    Error "bad magic (not a ClouDiA binary matrix)"
  else begin
    let version = Int32.to_int (Bytes.get_int32_le bytes 8) in
    let tag = Int32.to_int (Bytes.get_int32_le bytes 12) in
    let rows = Int32.to_int (Bytes.get_int32_le bytes 16) in
    let cols = Int32.to_int (Bytes.get_int32_le bytes 20) in
    if version <> format_version then
      Error (Printf.sprintf "unsupported format version %d (expected %d)" version format_version)
    else
      match tag with
      | 0 | 1 ->
          let mode = if tag = 0 then Float64 else Float32 in
          if rows <> cols then Error (Printf.sprintf "non-square dims %dx%d" rows cols)
          else if rows < 0 then Error "negative dimension"
          else Ok (mode, rows)
      | _ -> Error (Printf.sprintf "unknown storage tag %d" tag)
  end

let read_payload ic mode n =
  let w = elem_bytes mode in
  let t = create ~storage:mode n in
  let rowbuf = Bytes.create (max 1 (n * w)) in
  let ok = ref true in
  (try
     for i = 0 to n - 1 do
       (match In_channel.really_input ic rowbuf 0 (n * w) with
       | None -> raise Exit
       | Some () -> ());
       for j = 0 to n - 1 do
         let v =
           match mode with
           | Float64 -> Int64.float_of_bits (Bytes.get_int64_le rowbuf (j * 8))
           | Float32 -> Int32.float_of_bits (Bytes.get_int32_le rowbuf (j * 4))
         in
         Bigarray.Array2.unsafe_set t.data i j v
       done
     done
   with Exit -> ok := false);
  if !ok then Ok t else Error "truncated payload"

(* Zero-copy path: the 64-byte header is exactly eight float64 slots, so
   the whole file maps as one flat float64 vector and the payload is a
   contiguous sub-view reshaped to 2-D. MAP_PRIVATE (shared:false) keeps
   caller writes out of the file. Only sound when the payload is already
   the in-memory representation: float64 elements on a little-endian
   host; every other case takes the portable channel path. *)
let try_mmap path n =
  let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
  Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
  let total = 8 + (n * n) in
  let g = Unix.map_file fd Bigarray.float64 Bigarray.c_layout false [| total |] in
  let flat = Bigarray.array1_of_genarray g in
  let payload = Bigarray.Array1.sub flat 8 (n * n) in
  let data = Bigarray.reshape_2 (Bigarray.genarray_of_array1 payload) n n in
  { data; storage = Float64 }

let read_binary ?(mmap = false) path =
  match In_channel.open_bin path with
  | exception Sys_error e -> Error e
  | ic ->
      Fun.protect ~finally:(fun () -> In_channel.close ic) @@ fun () ->
      let header = Bytes.create header_bytes in
      (match In_channel.really_input ic header 0 header_bytes with
      | None -> Error "truncated header"
      | Some () -> (
          match read_header header with
          | Error _ as e -> e
          | Ok (mode, n) ->
              let expected = header_bytes + (n * n * elem_bytes mode) in
              let size = In_channel.length ic |> Int64.to_int in
              if size < expected then
                Error
                  (Printf.sprintf "truncated payload (%d bytes, expected %d)" size expected)
              else if mmap && mode = Float64 && not Sys.big_endian then
                match try_mmap path n with
                | t -> Ok t
                | exception Unix.Unix_error (e, _, _) ->
                    Error ("mmap failed: " ^ Unix.error_message e)
              else read_payload ic mode n))

let looks_binary path =
  match In_channel.open_bin path with
  | exception Sys_error _ -> false
  | ic ->
      Fun.protect ~finally:(fun () -> In_channel.close ic) @@ fun () ->
      let buf = Bytes.create (String.length magic) in
      (match In_channel.really_input ic buf 0 (String.length magic) with
      | None -> false
      | Some () -> Bytes.to_string buf = magic)
