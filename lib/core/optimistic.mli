(** Optimistic coalescing (Park–Moon; Section 5).

    Phase 1 coalesces affinities aggressively, ignoring colorability.
    Phase 2 de-coalesces: while the merged graph is not
    greedy-k-colorable, pick a merged class inside the stuck residue
    (the subgraph where every vertex has degree >= k) and split it back
    into its original vertices, preferring classes that lose little
    affinity weight per unit of residue degree.  Phase 3 re-coalesces
    the given-up affinities one by one with the brute-force conservative
    test, recovering merges that the coarse class splitting threw away
    (Park–Moon's secondary re-coalescing).

    Finding the optimal de-coalescing is NP-complete even on chordal
    graphs for k = 4 (Theorem 6); {!Exact.decoalesce} gives the optimum
    on small instances. *)

type scoring =
  | Degree_per_weight
      (** residue degree freed per unit of affinity weight given up —
          the default, balancing colorability progress against cost *)
  | Weight_only  (** split the cheapest class first *)
  | Degree_only  (** split the class with the highest residue degree *)

val coalesce : ?scoring:scoring -> Problem.t -> Coalescing.solution
(** Requires the input graph to be greedy-k-colorable; raises
    [Invalid_argument] otherwise (the de-coalescing loop could not
    terminate on an uncolorable base graph).  The phase-3 re-coalescing
    fixpoint runs on the {!Conservative.Engine}.

    Prefer {!Strategies.run_cfg} for new call sites; [?scoring]
    (default [Degree_per_weight]) is for the de-coalescing ablation and
    the differential tests.  This entry point stays as the primitive
    the dispatcher calls. *)

val decoalesce_greedy :
  ?scoring:scoring -> Problem.t -> Coalescing.state -> Coalescing.state
(** Phase 2 alone, exposed for tests, the Theorem 6 experiment and the
    de-coalescing ablation: splits classes of the given all-merged
    state until the graph is greedy-k-colorable.

    Runs on the {!Rc_graph.Flat} kernel: one mirror of the base graph,
    and per iteration a checkpointed replay of the surviving class
    merges followed by a rollback — victim scoring and tie-breaking
    match a persistent rebuild of the merge state per split (the
    test-only oracle the differential suite holds this to). *)

val pick_victim :
  scoring:scoring ->
  affinities:Problem.affinity list ->
  residue_degree:(Rc_graph.Graph.vertex -> int) ->
  (Rc_graph.Graph.vertex * Rc_graph.Graph.vertex list) list ->
  Rc_graph.Graph.vertex * Rc_graph.Graph.vertex list
(** The de-coalescing victim among merged classes [(rep, members)]
    whose representative lies in the stuck residue (in increasing
    representative order): the first class whose score strictly beats
    every earlier one.  [residue_degree rep] is the representative's
    degree in the residue-induced subgraph.  Raises [Invalid_argument]
    on an empty class list. *)
