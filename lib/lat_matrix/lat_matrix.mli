(** Flat, row-major pairwise latency matrices.

    The solvers spend essentially all their time reading the cost matrix.
    A [float array array] of 1000+ instances is ~8 MB of boxed rows the GC
    must scan and the cache must chase; this module stores the same values
    in one contiguous [Bigarray.Array2] (float64, C layout) that lives
    outside the OCaml heap, with O(1) unsafe row slices for kernel loops.

    {2 Storage modes}

    Values are always held (and computed on) as float64 in memory, so
    every float64 result is bit-identical to the historical boxed
    representation. The {!storage} tag selects the {e on-disk} element
    width: [Float32] halves the file and quantizes each entry to the
    nearest single-precision value at construction time — a relative
    error of at most 2⁻²⁴ (≈ 6e-8), four orders of magnitude below the
    µs-scale differences the paper's latency matrices exhibit — after
    which binary round trips are exact.

    {2 On-disk binary format}

    A 64-byte header followed by the raw row-major payload, everything
    little-endian:

    {v
      offset  size  field
      0       8     magic "CLDALAT1"
      8       4     format version (u32, = 1)
      12      4     storage tag (u32: 0 = float64, 1 = float32)
      16      4     rows (u32)
      20      4     cols (u32, = rows; square matrices only)
      24      40    zero padding (reserved)
      64      r*c*w payload, row-major, w = 8 (float64) or 4 (float32)
    v}

    The 64-byte header is a whole number of elements in either width, so
    a float64 file can be mapped directly: {!read_binary} [~mmap:true]
    returns a zero-copy (copy-on-write) view of the payload on
    little-endian hosts. NaN entries (unsampled pairs) round-trip through
    the payload bit-for-bit in float64 mode, and stay NaN in float32
    mode. *)

type storage = Float64 | Float32

val storage_to_string : storage -> string
val storage_of_string : string -> storage option

type t

type buffer = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array2.t
(** The in-memory representation: one contiguous float64 block. Kernel
    loops should hoist {!data} once and read with
    [Bigarray.Array2.unsafe_get] — bigarray primitives specialize on the
    call-site type, so such reads compile to direct loads even in builds
    without cross-module inlining ([-opaque] dev profile). *)

val storage : t -> storage

val dim : t -> int
(** Number of instances [n]; the matrix is [n × n]. *)

(** {2 Construction} *)

val create : ?storage:storage -> int -> t
(** [create n] is an [n × n] all-zero matrix (default storage [Float64]). *)

val init : ?storage:storage -> int -> (int -> int -> float) -> t
(** [init n f] fills entry [(i, j)] with [f i j] (row-major order),
    quantizing each value when [storage] is [Float32]. *)

val of_arrays : ?storage:storage -> float array array -> t
(** Copy a boxed square matrix into flat storage. Raises
    [Invalid_argument] if the rows are ragged. *)

val to_arrays : t -> float array array
(** Materialize a boxed copy. Nothing in the library needs one; it is kept
    for the benchmark harness and the tests. *)

val with_storage : storage -> t -> t
(** Re-tag (and, for [Float32], quantize) a copy of the matrix. *)

val quantize : storage -> float -> float
(** The value a given entry becomes under a storage mode: the identity
    for [Float64], round-to-nearest-single (widened back) for
    [Float32]. *)

(** {2 Access} *)

val get : t -> int -> int -> float
(** Bounds-checked read. *)

val unsafe_get : t -> int -> int -> float
(** Unchecked read for kernel loops whose indices are validated by
    construction. *)

val set : t -> int -> int -> float -> unit
(** Bounds-checked write (no quantization; accumulation buffers stay
    full-precision regardless of the storage tag). *)

val add : t -> int -> int -> float -> unit
(** [add t i j v] accumulates [v] into entry [(i, j)] — the probe-sum
    pattern of the measurement schemes, one flat read-modify-write. *)

val row : t -> int -> (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** O(1) view of row [i] — shares storage with the matrix. *)

val data : t -> buffer
(** The underlying flat buffer (always float64 in memory). *)

val iter : (int -> int -> float -> unit) -> t -> unit
(** Row-major iteration over every entry. *)

val off_diagonal : t -> float array
(** The [n·(n-1)] off-diagonal entries in row-major order — the
    clustering input, read straight off the flat buffer. *)

val equal : t -> t -> bool
(** Bitwise value equality (NaN equals NaN of the same payload); the
    storage tags are not compared. *)

val fingerprint : t -> int64
(** Content hash (FNV-1a, 64-bit) over the dimension and the float64 bit
    patterns of the flat buffer in row-major order. Two matrices collide
    iff {!equal} would — same bits, same hash — so the serving cache can
    key clusterings, cost ranks, and warm starts by fingerprint. The
    storage tag is not hashed (it only affects the on-disk width). *)

val fingerprint_hex : t -> string
(** {!fingerprint} as 16 lowercase hex digits — the wire/key form. *)

(** {2 Binary I/O} *)

val magic : string
val header_bytes : int

val write_binary : string -> t -> unit
(** Write the binary format described above. Raises [Sys_error] on I/O
    failure. *)

val read_binary : ?mmap:bool -> string -> (t, string) result
(** Read a binary matrix file. With [~mmap:true] (default [false]) a
    float64 file on a little-endian host is mapped copy-on-write instead
    of copied through a channel; other cases silently fall back to the
    portable read path. Returns [Error] on missing files, bad magic,
    unsupported version/tag, non-square dims or truncated payloads. *)

val looks_binary : string -> bool
(** Whether a file starts with {!magic} — format sniffing for loaders
    that accept both CSV and binary matrices. *)
