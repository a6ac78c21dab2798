(** Exact solvers (exponential — small instances only).

    These provide the ground truth the NP-completeness experiments and
    the heuristic-quality benchmarks compare against.  All maximize the
    total weight of coalesced affinities by deciding, for each affinity
    in turn, to merge or give up, with a weight-bound prune.  Only the
    *final* graph is required to be colorable: intermediate states may
    temporarily break greedy-k-colorability (merging can both break and
    repair it, which is exactly why pruning on intermediate colorability
    would be unsound).

    Scope caveat: the search merges affinity endpoints only.  For the
    k-colorable target ({!conservative_k_colorable}) this loses no
    generality — extra merges only constrain the coloring further.  For
    the greedy-k-colorable target ({!conservative}), merging vertices
    *not* related by any affinity can repair greedy-colorability
    (Vegdahl-style node merging, which the paper cites in Section 1), so
    {!conservative} is the optimum over affinity-merge-only coalescings;
    strategies that perform auxiliary merges, such as the Theorem 5
    driver, can occasionally beat it. *)

val sorted_affinities : Problem.t -> Problem.affinity array * int array
(** The branch order every exact solver in this library shares:
    affinities sorted by decreasing weight (ties by endpoint pair),
    paired with the suffix-weight table [suffix.(i)] = total weight of
    affinities [i..] that the bound prune consumes.  Exposed so the
    pseudo-boolean backend ({!Pb}) can index its decision variables in
    the identical order and reproduce this solver's optimum
    byte-for-byte. *)

val aggressive : Problem.t -> Coalescing.solution
(** Optimal aggressive coalescing (Section 3): interferences are the
    only constraint. *)

val conservative :
  ?stop:(unit -> bool) ->
  ?prime:Coalescing.solution ->
  Problem.t ->
  Coalescing.solution
(** Optimal conservative coalescing (Section 4): the coalesced graph
    must be greedy-k-colorable.  Raises [Invalid_argument] if the input
    graph is not greedy-k-colorable itself (then the instance is outside
    the problem's scope).

    [?stop] is a cooperative cancellation probe polled every ~1k search
    nodes; once it returns [true] the search raises {!Cancel.Stopped}
    (used by the portfolio racer to cancel the losing backend).

    [?prime] seeds the branch-and-bound with a known-feasible incumbent
    (e.g. a heuristic or analysis-dispatcher answer): its coalesced
    weight becomes the initial pruning floor, and if no leaf strictly
    beats it the incumbent itself is returned — so the result weight is
    always the optimum, and a good oracle only shrinks the search.  The
    incumbent must be a conservative solution of [p] (not re-checked
    here; the certification layer is). *)

val conservative_k_colorable : Problem.t -> Coalescing.solution
(** Variant where the final graph must be k-colorable (exact coloring
    test instead of the greedy one) — the literal Problem "conservative
    coalescing" statement.  Doubly exponential in spirit; tiny instances
    only. *)

val decoalesce : Problem.t -> Coalescing.state -> Coalescing.solution
(** Optimal de-coalescing (Section 5): given a state where all
    affinities are coalesced, find the refinement that gives up a
    minimum total weight of affinities such that the graph becomes
    greedy-k-colorable.  Since every affinity subset choice refines the
    all-coalesced map, this is {!conservative} restricted to the
    problem; the state argument is checked to really coalesce
    everything ([Invalid_argument] otherwise). *)

val incremental : Problem.t -> Rc_graph.Graph.vertex -> Rc_graph.Graph.vertex -> bool
(** Exact incremental conservative coalescing: does the problem's graph
    admit a k-coloring with [f x = f y]?  (Backtracking search; the
    ground truth for Theorem 4 and Theorem 5 experiments.)

    {1 Implementation note}

    The search drivers above run on one {!Coalescing.Speculation}
    context: branches merge on the flat graph, leaves re-run the linear
    verdict kernel in place, and backtracking is a checkpoint rollback.
    Exploration order, pruning and tie-breaking are identical to the
    persistent-graph search (one {!Coalescing.merge} per probe, the
    test-only oracle the differential suite holds this to), so both
    return the same optimum. *)
