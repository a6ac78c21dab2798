(** Coalescing semantics: merge states, coalesced graphs and solutions.

    Following Section 2.1, a coalescing of [G = (V, E)] is a function
    [f] with [f u <> f v] for every interference [(u, v)]; an affinity
    [(u, v)] is coalesced when [f u = f v].  We represent [f] by a
    {!type:state}: the current merged graph, a map from original
    vertices to class ids, and, for each class of two or more vertices,
    its representative (its vertex in the merged graph), size and
    members.  States are persistent; a {!merge} costs the graph surgery
    plus O(smaller class * log n). *)

module Graph = Rc_graph.Graph

type state

val initial : Graph.t -> state

val find : state -> Graph.vertex -> Graph.vertex
(** Current representative of an original vertex.  Raises
    [Invalid_argument] on vertices absent from the initial graph. *)

val graph : state -> Graph.t
(** The coalesced graph G_f. *)

val merge : state -> Graph.vertex -> Graph.vertex -> state option
(** [merge st u v] coalesces the classes of [u] and [v] (arguments may
    be original vertices); [find st u] stays the representative.  [None]
    when the classes interfere or are equal — both make the coalescing
    invalid or pointless.  Only the smaller class is relabelled, so over
    any chain of merges each vertex is relabelled at most log2 n
    times. *)

val same_class : state -> Graph.vertex -> Graph.vertex -> bool

val classes : state -> (Graph.vertex * Graph.vertex list) list
(** Representative together with the original vertices it stands for,
    in increasing representative order, members ascending. *)

val class_of : state -> Graph.vertex -> Graph.vertex list
(** Original vertices merged into the class of the given vertex,
    ascending. *)

val of_classes : Graph.t -> (Graph.vertex * Graph.vertex list) list -> state
(** [of_classes g cls] builds the state realizing explicit classes over
    the vertices of [g]: each [(rep, members)] class is merged into
    [rep]; vertices named by no class stay singletons.  Raises
    [Invalid_argument] when the classes overlap or one interferes. *)

(** {1 Speculation}

    The shared kernel of every merge-heavy search driver (conservative
    fixpoints, optimistic de-coalescing replays, exact branch-and-bound,
    set probing): one {!Rc_graph.Flat} mirror of a state's merged graph,
    a union-find over its dense indices tracking speculative merges, and
    marks that snapshot both so a whole burst of merges can be undone in
    time proportional to the work done — instead of rebuilding a
    persistent graph per probe.

    Discipline: marks are LIFO, exactly like {!Rc_graph.Flat}
    checkpoints (each mark opens one).  A [spec] is single-owner mutable
    state; accepted merges are replayed onto the persistent base state
    once, by {!Speculation.commit}, so callers keep the same boundary
    types. *)

module Speculation : sig
  type spec
  type mark

  val of_state : state -> spec
  (** Flat mirror of [state]'s current merged graph.  The state is
      retained as the commit base; it is never mutated. *)

  val flat : spec -> Rc_graph.Flat.t
  (** The underlying flat graph, for verdict kernels
      ({!Rc_graph.Greedy_k.flat_is_greedy_k_colorable}, the flat
      conservative rules...).  Callers must not mutate it directly —
      all mutation goes through {!merge}/{!merge_roots} so the
      union-find stays in sync. *)

  val base : spec -> state
  (** The persistent state this speculation started from (the commit
      base).  Never mutated; the sanitizer replays {!merge_log} onto it
      to cross-check {!commit}. *)

  val attach_cache : spec -> Rule_cache.t -> unit
  (** Attach a rule cache: every subsequent merge feeds it its
      invalidation set (via {!Rule_cache.pre_merge}, before the rows
      change), and every {!mark}/{!rollback}/{!release} carries a cache
      mark so cached verdict stamps travel with the graph state.
      [Invalid_argument] if a cache is already attached or a checkpoint
      is open. *)

  val cache : spec -> Rule_cache.t option

  val repr : spec -> Graph.vertex -> int
  (** Flat index currently representing an original vertex's class
      (composition of the base state's representative map and the
      speculative union-find). *)

  val root_index : spec -> int -> int
  (** Current root of a flat index under the speculative union-find.
      [root_index s (repr s v) = repr s v] now and stays the class root
      across later merges — engines cache a class root once and re-root
      it in O(chain) instead of paying the representative-map lookup of
      {!repr} on every visit. *)

  val label : spec -> int -> Graph.vertex
  val same_class : spec -> Graph.vertex -> Graph.vertex -> bool

  val merge : spec -> Graph.vertex -> Graph.vertex -> bool
  (** Speculatively coalesce two classes, by any member vertices.
      [false] (and no mutation) when the classes are equal or
      interfere; [true] when the merge was applied to the flat graph
      and logged. *)

  val merge_roots : spec -> int -> int -> unit
  (** Lower-level variant for drivers that already hold the class
      roots: contracts root [iv] into root [iu].  The caller must have
      checked [iu <> iv] and non-interference (as the conservative
      fixpoint does before running its rule tests). *)

  val mark : spec -> mark
  val rollback : spec -> mark -> unit
  val release : spec -> mark -> unit

  val merge_log : spec -> (Graph.vertex * Graph.vertex) list
  (** The accepted merges so far (oldest first), as original-vertex
      pairs — a branch-and-bound search snapshots this at improving
      leaves. *)

  val replay : state -> (Graph.vertex * Graph.vertex) list -> state
  (** Replays a merge log onto a persistent state.  Raises
      [Invalid_argument] on an entry that does not apply to the state
      (its endpoints are already one class, or interfere). *)

  val commit : spec -> state
  (** [replay base (merge_log spec)]: the persistent state realizing
      every merge accepted so far. *)

  (** {2 Instrumentation}

      Same contract as {!Rc_graph.Flat.set_monitor}: a domain-local
      hook for the kernel sanitizer, [None] in release builds (one
      domain-local load and branch per speculation event), fired after
      the event completes.  Each domain installs and observes its own
      hook, so sweep-engine workers can sanitize concurrently without
      sharing audit state.  [Committed] carries the persistent state
      just produced so the monitor can compare it against the flat
      mirror. *)

  type event = Merged | Rolled_back | Released | Committed of state

  val set_monitor : (event -> spec -> unit) option -> unit

  val self_check : spec -> unit
  (** Full structural audit: union-find parent links are acyclic and in
      range, every live merge-log entry (iu, iv) still has
      [parent iv = iu] with [iv] dead in the flat mirror and merged
      away at most once, and no index is re-rooted without a log entry.
      O(capacity); raises [Failure] on corruption. *)
end

(** {1 Solutions} *)

type solution = {
  state : state;
  coalesced : Problem.affinity list;
  gave_up : Problem.affinity list;
}

val solution_of_state : Problem.t -> state -> solution
(** Classifies each affinity of the problem as coalesced or not under
    the merge state. *)

val coalesced_weight : solution -> int
val remaining_weight : solution -> int

val check : Problem.t -> solution -> (unit, string) result
(** Soundness: the merged graph has no self-interference (guaranteed by
    construction, re-checked), the coalesced/gave-up split matches the
    state, and every class is connected via affinities or arbitrary
    merges of non-interfering vertices (no structural requirement —
    only consistency is enforced). *)

val is_conservative : Problem.t -> solution -> bool
(** The coalesced graph is greedy-k-colorable for the problem's [k]. *)
