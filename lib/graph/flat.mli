(** Flat mutable graphs: the hot-path kernel behind {!Greedy_k},
    {!Chordal} and the coalescing searches of [rc_core].

    The persistent {!Graph} representation ([ISet.t IMap.t]) pays
    O(log n) plus allocation on every adjacency probe; every algorithm
    of this reproduction funnels through it.  [Flat] re-represents a
    graph over a {e dense vertex index} [0 .. capacity-1]:

    - adjacency as {e per-row adaptive} storage: sparse rows are
      plain int arrays (cache-friendly iteration), dense rows are
      bitsets of 32-bit words (O(1) membership, word-parallel set
      operations, popcount degrees).  A sparse row is promoted in
      place once its degree reaches the promotion degree (see
      {!create}), the point where both forms cost the same memory;
    - cached degrees ({!degree} is an array read),
    - reusable scratch buffers for client algorithms, and
    - an {e undo log} ({!checkpoint} / {!rollback}) so merge-heavy
      searches can speculate on [merge]/[remove_vertex] and back out in
      time proportional to the work done, instead of copying the graph.

    Vertices of the source {!Graph.t} are mapped to dense indices by
    {!of_graph} (in increasing vertex order); {!label} and {!index}
    translate between the two worlds, and {!to_graph} converts back.
    All operations below speak {e indices}, not original vertex ids.

    Memory is O(capacity + edges) words; the adaptive rows scale to
    10^5-vertex challenge instances.

    Mutability discipline: a [Flat.t] is single-owner mutable state.
    Functions in this library that accept one never retain it. *)

type t

type checkpoint
(** A point in the undo log.  Checkpoints must be consumed in LIFO
    order (most recent first), either by {!rollback} or {!release}. *)

(** {1 Construction and bridges} *)

val create : ?promote_at:int -> int -> t
(** [create n] is the edgeless graph on live indices [0 .. n-1], with
    [label t i = i].

    A sparse row is promoted to a bitset once its degree reaches
    [promote_at], which defaults to [max 4 ((n + 31) / 32)]: the
    memory-parity point where a bitset row costs no more than the int
    row it replaces.  Every shipped caller takes the default; kernel
    tests and benchmarks force one form with [~promote_at:0] (every
    row a bitset from birth) or [~promote_at:max_int] (int rows only;
    membership scans the shorter row).  Promotion preserves the edge
    set, so it commutes with the undo log: rolling back past a
    promotion simply leaves the row dense with fewer bits.  Rows are
    never demoted.  Raises [Invalid_argument] on a negative
    [promote_at]. *)

val of_graph : ?promote_at:int -> Graph.t -> t
(** Dense snapshot of a persistent graph.  Index [i] corresponds to the
    [i]-th smallest vertex of the source.  A degree pre-pass sizes
    every sparse row exactly and allocates rows past the promotion
    degree (as in {!create}, over the source's vertex count) as
    bitsets directly. *)

val to_graph : t -> Graph.t
(** Persistent snapshot of the live part, with original labels, built
    in one bulk pass that holds one row at a time ({!Graph.of_rows}). *)

val copy : t -> t
(** Independent copy (the undo log is not copied). *)

(** {1 Index mapping} *)

val capacity : t -> int
(** Number of dense indices, live or dead.  Never changes. *)

val label : t -> int -> Graph.vertex
(** Original vertex id of an index. *)

val index : t -> Graph.vertex -> int
(** Dense index of an original vertex id.  Raises [Not_found] if the
    vertex was not in the source graph. *)

(** {1 Queries} *)

val is_live : t -> int -> bool
val num_live : t -> int
val num_edges : t -> int

val mem_edge : t -> int -> int -> bool
(** O(1) when either endpoint's row is a bitset; otherwise a scan of
    the shorter row, whose length is bounded by the promotion
    degree. *)

val degree : t -> int -> int
(** O(1).  0 for dead vertices. *)

val iter_neighbors : t -> int -> (int -> unit) -> unit
(** Iterates the live neighbors of a live index, in unspecified order
    (bitset rows iterate in increasing index order, sparse rows in
    insertion order).  The graph must not be mutated during
    iteration. *)

val fold_neighbors : t -> int -> ('a -> int -> 'a) -> 'a -> 'a

val neighbor_list : t -> int -> int list

val iter_live : t -> (int -> unit) -> unit
(** Iterates live indices in increasing order. *)

(** {1 Word-parallel set views}

    The binary neighborhood combinators behind the coalescing tests of
    {!Rc_core.Rules}: when both rows are bitsets they run one AND /
    AND-NOT / popcount per 32-bit word; otherwise they fall back to
    iterating one row and probing the other.  Same mutation caveat as
    {!iter_neighbors}. *)

val iter_diff : t -> int -> int -> (int -> unit) -> unit
(** [iter_diff t u v f] applies [f] to every member of N(u) \ N(v). *)

val iter_common : t -> int -> int -> (int -> unit) -> unit
(** [iter_common t u v f] applies [f] to every member of N(u) ∩ N(v). *)

val count_common : t -> int -> int -> int
(** [count_common t u v] is |N(u) ∩ N(v)| — pure popcount on bitset
    rows, no iteration. *)

(** {1 Mutation}

    All mutations are recorded in the undo log whenever at least one
    checkpoint is outstanding, and are O(degree) or better. *)

val add_edge : t -> int -> int -> unit
(** No-op if the edge exists.  Raises [Invalid_argument] on self-loops
    or dead endpoints. *)

val add_new_edge : t -> int -> int -> unit
(** Bulk-load variant of {!add_edge} that skips the membership probe
    and the liveness checks.  The caller guarantees both endpoints are
    live, [u <> v], and the edge is absent — the streaming challenge
    generators feed millions of edges through this, where even a
    threshold-bounded probe per edge would dominate construction. *)

val remove_edge : t -> int -> int -> unit
(** No-op if the edge is absent. *)

val remove_vertex : t -> int -> unit
(** Removes the incident edges, then marks the index dead.  No-op if
    already dead. *)

val merge : t -> int -> int -> unit
(** [merge t u v] contracts [v] into [u] (the coalescing primitive):
    all neighbors of [v] become neighbors of [u] and [v] dies.  Raises
    [Invalid_argument] if [u = v], either index is dead, or [u] and [v]
    are adjacent — mirroring {!Graph.merge}.  When both rows are
    bitsets the grafted set N(v) \ N(u) is computed word-parallel and
    added without per-edge membership probes; each primitive step is
    still logged individually, so rollback is unchanged. *)

(** {1 Speculation: the undo log} *)

val checkpoint : t -> checkpoint
(** Opens a speculation scope: subsequent mutations are logged. *)

val rollback : t -> checkpoint -> unit
(** Undoes every mutation since the checkpoint (edge content is
    restored exactly; adjacency-array order may differ) and closes the
    scope.  Cost is proportional to the number of logged primitive
    edge/vertex operations. *)

val release : t -> checkpoint -> unit
(** Closes the scope, {e keeping} the mutations.  If it was the
    outermost scope the log is discarded; otherwise the mutations
    become part of the enclosing scope (an outer {!rollback} still
    undoes them). *)

val checkpoint_depth : t -> int
(** Number of currently open speculation scopes.  Search drivers built
    on checkpoint/rollback use this to assert their scope discipline is
    balanced (tests). *)

val epoch : t -> int
(** Mutation counter: bumped on every structural change — edge
    additions and removals, vertex kills, and the inverse replays a
    {!rollback} performs.  Derived views of the graph
    ({!Elim_order}) record the epoch they last agreed with and compare
    it to detect that someone else mutated the kernel; only equality is
    meaningful, the magnitude is not. *)

(** {1 Row introspection}

    Read-only access to the physical row representation, for the
    sanitizer's bitset audits, the word-parallel client kernels and the
    representation-differential tests.  The returned arrays are the
    live rows themselves — never write to them. *)

val row_is_dense : t -> int -> bool
(** Whether the index's row is currently a bitset. *)

val row_words : t -> int -> int array
(** The bitset of a dense row ([words_per_row] 32-bit chunks, packed in
    native ints); [[||]] for a sparse row. *)

val row_entries : t -> int -> int array
(** The int row of a sparse vertex — only the first {!degree} cells are
    meaningful; [[||]] for a dense row. *)

val words_per_row : t -> int
(** Number of 32-bit chunks per dense row: [(capacity + 31) / 32]. *)

val row_summary : t -> int -> int array
(** Occupancy summary of a dense row: bit [i] is set iff word [i] of
    {!row_words} is non-zero — one packed bit per chunk, kept exact by
    every mutation.  [[||]] for a sparse row.  Never write to it. *)

val summary_words : t -> int
(** Number of 32-bit chunks per row summary:
    [(words_per_row + 31) / 32]. *)

val dense_rows : t -> int
(** Number of live indices whose row is currently a bitset. *)

(** Word-level helpers shared with the client kernels that scan
    {!row_words} directly ({!Greedy_k}'s elimination loops). *)
module Bits : sig
  val word_bits : int
  (** 32 — logical bits per packed word. *)

  val popcount : int -> int
  (** Set bits among the low 32; SWAR, branch-free. *)

  val lsb_table : int array

  val lsb : int -> int
  (** Index of the least-significant set bit (de Bruijn multiply).
      Undefined on 0. *)
end

(** {1 Scratch buffers}

    Two lazily allocated [capacity]-sized int arrays for client
    algorithms (degree copies, marks, positions...), so steady-state
    kernels allocate nothing.  A caller must be done with a buffer
    before any function that may also claim it runs; the library itself
    never holds one across a callback into client code. *)

val scratch1 : t -> int array
val scratch2 : t -> int array

(** {1 Instrumentation}

    Hooks for the kernel sanitizer ({!Rc_check.Sanitize}): a global
    monitor observing every speculation event, plus accessors exposing
    undo-log positions so the monitor can assert log balance.  With no
    monitor installed (the release default) the only cost is one
    mutable load and branch per {!checkpoint}/{!rollback}/{!release} —
    never per edge operation. *)

type event =
  | Checkpointed of checkpoint  (** after the scope opened *)
  | Rolled_back of checkpoint  (** after the log was replayed *)
  | Released of checkpoint  (** after the scope closed, mutations kept *)

val set_monitor : (event -> t -> unit) option -> unit
(** Installs (or removes, with [None]) the calling domain's speculation
    monitor.  It fires after the event completes, for every [Flat.t]
    the installing domain touches.  The hook is domain-local storage:
    sweep-engine worker domains each install (and observe) their own
    monitor, so audit state never races across domains — a kernel is
    only ever driven by the domain that created it.  The monitor must
    not mutate the graph. *)

val log_length : t -> int
(** Current undo-log length (0 whenever no checkpoint is open). *)

val log_position : checkpoint -> int
(** The log length at which the checkpoint was opened.  After a
    {!rollback} of [c], [log_length t = log_position c] — the balance
    invariant the sanitizer asserts. *)

val check_vertex : t -> int -> unit
(** One-vertex slice of {!check_invariants}: the index is either dead
    with degree 0 and an all-zero bitset, or its row is well-formed —
    sparse entries live, duplicate-free and present in the neighbor's
    row; bitset rows additionally popcount-consistent with the cached
    degree, free of self-loop or phantom past-capacity bits, and
    symmetric.  O(degree * probe), allocation-free, does not claim the
    scratch buffers.  Raises [Failure] on corruption,
    [Invalid_argument] if the index is out of range. *)

(** {1 Debug} *)

val check_invariants : t -> unit
(** Verifies row/degree/edge-count consistency for both row forms;
    raises [Failure] with a description on corruption.  Tests only. *)

(** Deliberate corruption, for mutation tests of the checking layer —
    each primitive violates exactly one representation invariant so
    tests can assert the sanitizer catches that class.  Never use
    outside tests. *)
module Fault : sig
  val drop_bit : t -> int -> int -> unit
  (** Directed membership drop on [u]'s side only.  Bitset row: clears [u]'s bit of
      [v], leaving the cached degree (and [v]'s row) stale.  Sparse
      row: overwrites the entry with the row's last one without
      shrinking the degree — undetectable in the edge case where [v]
      already was the last entry. *)

  val drop_adjacency : t -> int -> int -> unit
  (** Removes [v] from [u]'s row {e and} decrements the degree, leaving
      the reverse row claiming the edge exists. *)

  val smash_row_word : t -> int -> int -> unit
  (** [smash_row_word t v i] flips all 32 bits of word [i] of a bitset
      row — a burst corruption: popcount drifts from the degree, and
      the top word gains phantom past-capacity bits.  Raises
      [Invalid_argument] if the row is not dense. *)

  val skew_edge_count : t -> int -> unit
  (** Adds a delta to the cached edge count. *)

  val truncate_log : t -> int -> unit
  (** Drops the newest [n] undo-log records, simulating lost undo
      information: the next {!rollback} under-replays and leaves the
      log shorter than the checkpoint's position. *)
end
