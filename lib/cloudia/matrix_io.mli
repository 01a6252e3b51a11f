(** Cost-matrix input/output.

    A tenant who has measured their own allocation (with this repository's
    schemes or any external prober) can hand ClouDiA the pairwise cost
    matrix directly instead of using the simulator, as CSV or in the
    binary format below. CSV is one row per source instance,
    comma-separated millisecond costs, zero diagonal; [#]-prefixed lines
    are comments; ["nan"] marks an unsampled pair.

    {v
      # 3 instances
      0, 0.41, 0.52
      0.40, 0, 0.77
      0.55, 0.79, 0
    v}

    Loading does not validate: {!Advisor.gate} checks a loaded matrix
    with coded diagnostics, so every entry point reports the same
    problems the same way. *)

val load :
  string -> (Lat_matrix.t, [ `Msg of string | `Lint of Lint.Diagnostic.t list ]) result
(** Read a matrix file, sniffing the format by magic: CLDALAT1 binary
    via {!Lat_matrix.read_binary}, anything else as CSV via {!parse_raw}. NaN, infinite,
    negative and diagonal entries load as they are. [`Msg] is an I/O,
    syntax or framing error; ragged CSV rows, which no square matrix can
    hold, are [`Lint] with their [LAT001] diagnostic. *)

val parse_raw : string -> (float array array, string) result
(** Parse CSV text into rows of floats without enforcing any matrix
    invariant — rows may be ragged and entries may be NaN, infinite or
    negative. A case-insensitive ["nan"] cell parses to [nan] explicitly.
    Only syntax errors (non-numeric cells, no rows) are [Error]. *)

val print : Lat_matrix.t -> string
(** Render a matrix back to the CSV form ([%.6g] per entry; round-trips
    through {!parse_raw} up to that precision). Unsampled entries print
    as a literal ["nan"]. *)

val save_binary : string -> Lat_matrix.t -> unit
(** Write a matrix in the binary format ({!Lat_matrix.write_binary}): a
    64-byte little-endian header (magic ["CLDALAT1"], version, storage
    tag, dims) followed by the raw row-major payload, float64 or float32
    per the matrix's storage tag. Unlike CSV, the round trip is exact —
    every float64 bit pattern, NaN included, survives. Raises
    [Sys_error] on I/O failure. *)
