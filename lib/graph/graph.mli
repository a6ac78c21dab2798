(** Persistent undirected graphs over integer vertices.

    This is the substrate every other module builds on: interference
    graphs, reduction gadgets and random instances are all values of
    {!type:t}.  The representation is purely functional (adjacency sets in
    a map), so coalescing searches can branch and backtrack by simply
    keeping old versions.

    Self-loops are forbidden: [add_edge g v v] raises
    [Invalid_argument].  Adding an edge implicitly adds its endpoints. *)

module ISet : Set.S with type elt = int
module IMap : Map.S with type key = int

type vertex = int

type t

(** {1 Construction} *)

val empty : t

val add_vertex : t -> vertex -> t

val add_edge : t -> vertex -> vertex -> t
(** [add_edge g u v] adds the undirected edge [(u, v)], implicitly adding
    [u] and [v].  Raises [Invalid_argument] if [u = v]. *)

val remove_vertex : t -> vertex -> t
(** Removes a vertex and all edges incident to it.  No-op if absent. *)

val remove_edge : t -> vertex -> vertex -> t

val of_edges : ?vertices:vertex list -> (vertex * vertex) list -> t
(** Builds a graph from an edge list; [vertices] adds extra isolated
    vertices. *)

val of_rows : (vertex * vertex list) Seq.t -> t
(** Bulk constructor for loaders that can produce the full symmetric
    adjacency one row at a time: each row [(v, neighbours of v)] (in
    any order) is turned into its neighbour set as it arrives, so only
    the current row's list is ever alive.  Rows come in strictly
    increasing vertex order and every neighbour has a row of its own.
    Much cheaper than repeated {!add_edge} on large instances — the
    binary-format loader and {!Flat.to_graph} build through it.
    Raises [Invalid_argument] on out-of-order or duplicate vertices,
    self-loops, or an asymmetric adjacency (including a neighbour
    without a row). *)

val union : t -> t -> t
(** Vertex- and edge-wise union. *)

(** {1 Queries} *)

val mem_vertex : t -> vertex -> bool
val mem_edge : t -> vertex -> vertex -> bool

val neighbors : t -> vertex -> ISet.t
(** Neighbor set of a vertex; empty set if the vertex is absent. *)

val degree : t -> vertex -> int

val vertices : t -> vertex list
(** Vertices in increasing order. *)

val vertex_set : t -> ISet.t

val edges : t -> (vertex * vertex) list
(** Each undirected edge reported once, as [(u, v)] with [u < v]. *)

val num_vertices : t -> int
val num_edges : t -> int

val max_vertex : t -> vertex
(** Largest vertex id, or [-1] on the empty graph.  Fresh vertices for
    gadget constructions are typically allocated as [max_vertex g + 1]. *)

val fold_vertices : (vertex -> 'a -> 'a) -> t -> 'a -> 'a

val fold_rows : (vertex -> ISet.t -> 'a -> 'a) -> t -> 'a -> 'a
(** Folds over the vertices in increasing order, each with its
    neighbour set: one walk of the adjacency, with no per-vertex
    lookup. *)

val iter_edges : (vertex -> vertex -> unit) -> t -> unit
val fold_edges : (vertex -> vertex -> 'a -> 'a) -> t -> 'a -> 'a

val is_clique : t -> vertex list -> bool
(** [is_clique g vs] checks that all distinct vertices of [vs] are
    pairwise adjacent in [g]. *)

(** {1 Transformation} *)

val merge : t -> vertex -> vertex -> t
(** [merge g u v] contracts [v] into [u]: all neighbors of [v] become
    neighbors of [u] and [v] disappears.  This is the coalescing
    primitive.  Raises [Invalid_argument] if [u] and [v] are adjacent
    (coalescing interfering variables is meaningless) or if either vertex
    is absent. *)

val induced : t -> ISet.t -> t
(** Subgraph induced by a vertex set. *)

val map_vertices : (vertex -> vertex) -> t -> t
(** Relabels vertices.  The mapping must be injective on the vertex set;
    raises [Invalid_argument] if two vertices collapse onto an edge
    endpoint pair that would create a self-loop. *)

val complement : t -> t
(** Complement graph on the same vertex set. *)

(** {1 Standard graphs} *)

val clique : int -> t
(** [clique n] is the complete graph on vertices [0 .. n-1]. *)

val cycle : int -> t
(** [cycle n] is the cycle on vertices [0 .. n-1]; requires [n >= 3]. *)

val path : int -> t
(** [path n] is the path on vertices [0 .. n-1]. *)

(** {1 Connectivity} *)

val connected_components : t -> ISet.t list

val is_connected : t -> bool
(** True for the empty graph. *)

(** {1 Printing and equality} *)

val pp : Format.formatter -> t -> unit

val equal : t -> t -> bool
(** Structural equality of vertex and edge sets. *)
