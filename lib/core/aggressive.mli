(** Aggressive coalescing (Section 3): remove as many moves as possible,
    constrained only by interferences — the colorability of the result
    is not considered.  Optimal aggressive coalescing is NP-complete
    (Theorem 2, from MULTIWAY CUT); the heuristic here is the classical
    greedy-by-weight merge, and {!Exact.aggressive} provides the optimum
    for small instances. *)

val coalesce : Problem.t -> Coalescing.solution
(** Greedy: affinities by decreasing weight, merged whenever the current
    classes do not interfere; repeated until no affinity can be merged
    (a second pass can succeed when an earlier merge removed the blocking
    pair ordering, so we iterate to a fixpoint). *)

val coalesce_state : Coalescing.state -> Problem.affinity list -> Coalescing.state
(** The same loop from an existing state (one flat speculation mirror
    internally; same classes as the historical persistent loop). *)

val all_coalescable : Problem.t -> Coalescing.state option
(** [Some st] iff greedily merging every affinity succeeds for all of
    them — the precondition of the optimistic problem (Section 5).
    Note this is itself only a heuristic check: it can fail even when a
    full coalescing exists (that is Theorem 2's point). *)
