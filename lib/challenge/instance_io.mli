(** Coalescing-instance I/O: the textual Appel–George-style format and
    the compact binary format the serving stack feeds on.

    {1 Text format}

    Loosely modeled on the files of the Appel–George coalescing
    challenge so that externally produced interference graphs can be
    fed to the solvers.

    Grammar (one directive per line; [#] starts a comment):

    {v
    k <int>                 register count (required, exactly once)
    v <int> ...             declare (possibly isolated) vertices
    e <int> <int>           interference edge
    a <int> <int> [<int>]   affinity, optional weight (default 1)
    v}

    Unknown directives, malformed integers, self-loops and affinities
    with negative weight are reported as [Error] with a line number.
    Zero-weight affinities are legal; {!print} always writes the weight
    explicitly (never relying on the parser's default of 1), so they
    round-trip exactly and profiles computed from re-parsed text match
    binary-loaded ones. *)

val parse : string -> (Rc_core.Problem.t, string) result
(** Parses the contents of an instance file.  Affinities are
    normalized exactly as {!Rc_core.Problem.make} does (endpoints
    ordered, duplicates merged, canonical sort), so hand-written files
    may list them in any order. *)

val read_file : string -> (Rc_core.Problem.t, string) result

val print : Rc_core.Problem.t -> string
(** Renders an instance canonically: [parse (print p)] reproduces [p]
    {e exactly} ([Graph.equal] graphs, structurally equal affinity
    lists and [k]), and [print] is idempotent across a parse round
    trip — locked by the round-trip regression suite in
    [test_server.ml]. *)

val write_file : string -> Rc_core.Problem.t -> unit

(** {1 Binary format}

    A versioned, canonical, little-endian encoding ("RCBI"): 32-byte
    header (magic, version, k, counts, zero flags), a strictly
    increasing vertex-id table, then edge and affinity sections stored
    as {e dense vertex-table indices} in strictly increasing
    lexicographic order.  Canonical means byte-equal encodings iff
    equal problems — the serve path keys its answer cache on
    {!hash_binary} of these bytes ({!key_binary}).  The sections are
    index-based so a loader can stream them into a {!Rc_graph.Flat}
    kernel with no id translation ({!view_flat}).  See DESIGN.md
    "Coalescing as a service" for the normative byte layout.

    Every entry point that accepts bytes — {!of_binary},
    {!view_of_binary}, {!key_binary} and {!key_view} — runs one shared
    validator over the words where they lie (a string from an offset
    on): the same checks in the same order, so the same bytes get the
    same [Ok]/[bin_error] constructor from each.  It is a direct loop
    that allocates nothing per word.  Files are read whole and decoded
    as strings ({!of_binary}). *)

type bin_error =
  | Bin_bad_magic
  | Bin_unsupported_version of int
  | Bin_bad_header of string  (** non-positive k, bad flags, negative counts *)
  | Bin_truncated of { expected : int; got : int }  (** sizes in bytes *)
  | Bin_malformed of string
      (** body violations: unsorted/duplicate vertices, edges or
          affinities, out-of-range indices, negative weights *)

val bin_error_to_string : bin_error -> string

val to_binary : Rc_core.Problem.t -> string
(** Canonical encoding.  Raises [Invalid_argument] if a vertex id, the
    weight of an affinity or [k] does not fit in int32. *)

val of_binary : string -> (Rc_core.Problem.t, bin_error) result
(** [of_binary (to_binary p) = Ok p] exactly, for every valid problem
    (the binary round-trip property suite locks this, up to [10^5]
    vertices). *)

val key_binary : string -> pos:int -> len:int -> (string, bin_error) result
(** [key_binary s ~pos ~len] validates the encoding in bytes
    [pos .. pos + len - 1] of [s] in place — no copy, no problem built,
    nothing allocated per word — and returns {!hash_binary} of exactly
    those bytes.  Validated bytes are the canonical encoding of the
    problem they decode to, so on [Ok] the key equals
    [canonical_hash] of [of_binary (String.sub s pos len)], and on
    [Error] the error is the one {!of_binary} reports for those bytes.
    The server keys binary SOLVE requests with it straight from its
    read buffer.  Raises [Invalid_argument] if the range is not inside
    [s]. *)

val is_binary : string -> bool
(** Magic sniff, so front ends can accept either format on one path. *)

(** {2 Zero-copy views} *)

type view
(** A validated instance whose sections still live in the string they
    were validated in; iteration reads the words in place. *)

val view_of_binary : string -> (view, bin_error) result

val view_k : view -> int
val view_counts : view -> int * int * int
(** (vertices, edges, affinities). *)

val view_vertex : view -> int -> int
(** Vertex id at a dense index. *)

val iter_view_edges : view -> (int -> int -> unit) -> unit
(** Edges as original vertex ids, canonical order. *)

val iter_view_affinities : view -> (int -> int -> int -> unit) -> unit
(** [f u v weight], canonical order. *)

val view_problem : view -> Rc_core.Problem.t
(** Materialize as a persistent-graph problem: the adjacency is
    gathered in one unboxed int buffer and handed to
    {!Rc_graph.Graph.of_rows} one row at a time, and the affinity
    section, validated into canonical order, becomes the normalized
    affinity list as it stands. *)

val view_flat : view -> Rc_graph.Flat.t * int array
(** Stream the edge section straight into a flat kernel of capacity
    [nv] through {!Rc_graph.Flat.add_new_edge} (the validated
    sortedness guarantees each edge arrives once with [i < j]).
    Returns the kernel and the dense-index-to-vertex-id table. *)

val key_view : string -> pos:int -> len:int -> (string * view, bin_error) result
(** {!key_binary} that also returns the validated view over the bytes
    where they lie.  The view reads [s] in place, so it lasts only as
    long as those bytes do; {!copy_view} detaches it. *)

val copy_view : view -> view
(** The same view over a private copy of its words.  Nothing is
    validated again: a view only ever comes out of the validator.  The
    server keys a binary SOLVE in its read buffer with {!key_view} and
    copies the view out on a miss, so the solve task decodes
    ({!view_problem}) without re-checking the bytes. *)

(** {2 Files} *)

val write_binary_file : string -> Rc_core.Problem.t -> unit

(** {2 Canonical hash} *)

val hash_binary : string -> string
(** FNV-1a of an encoding, as fixed-width hex.  Not cryptographic: the
    serve path uses it as a cache key and certifies answers
    independently. *)

val canonical_hash : Rc_core.Problem.t -> string
(** [hash_binary (to_binary p)] — equal problems hash equal, whatever
    route (text, binary, generator) produced them. *)
