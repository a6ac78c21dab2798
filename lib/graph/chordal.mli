(** Chordal graphs: recognition, optimal coloring and maximal cliques.

    A graph is chordal iff every cycle of length at least 4 has a chord,
    equivalently iff it admits a perfect elimination order (PEO).  A PEO
    is produced by maximum-cardinality search (MCS) exactly when the
    graph is chordal, which gives a linear-time recognition algorithm and
    — since chordal graphs are perfect — an optimal coloring with
    omega(G) colors by coloring along the reverse PEO.

    MCS and the zero-fill-in PEO check run on the {!Flat} kernel (array
    weight buckets, O(1) bitmatrix adjacency probes), making recognition
    O(V + E); the [flat_*] variants below operate directly on an
    existing {!Flat.t} over dense indices. *)

val mcs_order : Graph.t -> Graph.vertex list
(** Maximum-cardinality search order.  The returned list is a candidate
    perfect elimination order: MCS visits vertices by decreasing number
    of already-visited neighbors, and the *reverse* visit order is
    returned (so the list is checked/consumed front-to-back as an
    elimination order). *)

val is_perfect_elimination_order : Graph.t -> Graph.vertex list -> bool
(** [is_perfect_elimination_order g order] checks that for each vertex
    [v], the neighbors of [v] occurring after [v] in [order] form a
    clique.  The order must enumerate all vertices exactly once. *)

val is_chordal : Graph.t -> bool

val simplicial_vertices : Graph.t -> Graph.vertex list
(** Vertices whose neighborhood is a clique.  Every non-empty chordal
    graph has at least one. *)

val omega : Graph.t -> int
(** Clique number of a *chordal* graph (exact, via a PEO).  Raises
    [Invalid_argument] if the graph is not chordal. *)

val color : Graph.t -> Coloring.coloring
(** Optimal coloring of a *chordal* graph with omega(G) colors.  Raises
    [Invalid_argument] if the graph is not chordal. *)

val maximal_cliques : Graph.t -> Graph.ISet.t list
(** The maximal cliques of a *chordal* graph (at most |V| of them),
    derived from a PEO: the sets [C_v = {v} ∪ later(v)] in elimination
    order, minus those contained in another.  Raises [Invalid_argument]
    if not chordal. *)

(** {1 One elimination pass}

    {!omega}, {!color}, {!maximal_cliques} and {!Clique_tree} all read
    the same record: one flat snapshot, one MCS and one PEO check,
    O(V + E).  Vertices are addressed by their {e position} in the
    elimination order. *)

type peo = private {
  vertices : Graph.vertex array;
      (** position -> vertex; position 0 is eliminated first *)
  later : int array array;
      (** position -> positions of its later neighbours (a clique), in
          unspecified order *)
}

val peo : Graph.t -> peo option
(** The MCS elimination order with its later-neighbour sets, or [None]
    when the graph is not chordal (the order is then not a PEO).  The
    order is exactly {!mcs_order}'s. *)

val peo_omega : peo -> int
(** [1 + max |later(p)|]: the clique number (0 on the empty graph). *)

val maximal_heads : peo -> int list
(** The positions [p] whose clique [{p} ∪ later(p)] is maximal, in
    increasing order.  [C_p] is dropped iff some [q] has [p] as its
    follower (earliest later neighbour) and
    [|later(q)| = |later(p)| + 1]. *)

val clique_at : peo -> int -> Graph.ISet.t
(** The vertices of [{p} ∪ later(p)]. *)

val find_chordless_cycle : Graph.t -> Graph.vertex list option
(** A certificate of non-chordality: a cycle of length >= 4 without a
    chord, or [None] if the graph is chordal. *)

(** {1 Flat-kernel entry points}

    Read-only on the graph; they claim both scratch buffers. *)

val flat_mcs_order : Flat.t -> int list
(** MCS order over dense indices, reverse visit order (like
    {!mcs_order}). *)

val flat_is_peo : Flat.t -> int list -> bool
(** Zero-fill-in check of a candidate PEO over dense indices.  The list
    must enumerate every live index exactly once (not re-validated). *)

val flat_is_chordal : Flat.t -> bool

(** {1 Reference implementations}

    The pre-flat-kernel code paths on the persistent {!Graph}
    representation, kept as the independent re-derivation that
    [Rc_check.Lint] and the certifier's chordality claim run, and as
    the baseline for equivalence property tests.  [mcs_order] raises
    [Invalid_argument] if its bucket scan ever runs dry early (an
    internal invariant, not an input condition). *)

module Reference : sig
  val mcs_order : Graph.t -> Graph.vertex list
  val is_perfect_elimination_order : Graph.t -> Graph.vertex list -> bool
  val is_chordal : Graph.t -> bool
end
