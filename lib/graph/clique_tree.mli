(** Clique trees (junction trees) of chordal graphs.

    A chordal graph is the intersection graph of subtrees of a tree whose
    nodes are the graph's maximal cliques (Golumbic, Thm 4.8) — the
    representation the paper's Theorem 5 algorithm works on.  For each
    vertex [v], the set of tree nodes whose clique contains [v] induces a
    subtree [T_v]; two vertices are adjacent iff their subtrees meet.

    The tree is a forest when the graph is disconnected. *)

type t

val build : Graph.t -> t
(** Builds a clique tree.  Raises [Invalid_argument] if the graph is not
    chordal. *)

val of_peo : Chordal.peo -> t
(** The clique tree of an elimination pass: nodes are
    {!Chordal.maximal_heads}'s cliques in that order, and the forest is
    Kruskal's maximum-weight spanning forest of the clique-intersection
    graph, taking edges by weight descending, then (i, j) ascending.
    O(V·ω + number of intersecting clique pairs), with no set
    intersection and no comparison sort. *)

val num_nodes : t -> int

val omega : t -> int
(** Size of the largest node: the graph's clique number. *)

val clique : t -> int -> Graph.ISet.t
(** Vertex set of tree node [i] (a maximal clique of the graph). *)

val tree_edges : t -> (int * int) list
(** Edges of the forest over node indices. *)

val nodes_of_vertex : t -> Graph.vertex -> int list
(** The tree nodes whose clique contains a vertex (the subtree [T_v]),
    in increasing index order.  Empty if the vertex is absent. *)

val verify : Graph.t -> t -> bool
(** Checks the three clique-tree invariants against the source graph:
    nodes are exactly the maximal cliques, every [T_v] is connected in
    the tree, and subtrees intersect exactly for adjacent vertices.
    Intended for tests. *)

val path_between : t -> int -> int -> int list option
(** Unique path between two tree nodes (inclusive), or [None] if they
    lie in different components of the forest. *)

val path_between_vertices : t -> Graph.vertex -> Graph.vertex -> int list option
(** [path_between_vertices t x y] is the minimal tree path connecting
    subtree [T_x] to subtree [T_y]: its first node is the only path node
    containing [x] and its last node the only one containing [y].  For
    the degenerate case where the subtrees intersect, returns the
    singleton path at a shared node.  [None] when [x] and [y] are in
    different components (they can then trivially share a color). *)

val pp : Format.formatter -> t -> unit
