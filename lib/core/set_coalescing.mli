(** Simultaneous (set) conservative coalescing — the remedy Section 4
    sketches for the non-incrementality of conservative coalescing.

    Figure 3 (right) shows a greedy-k-colorable graph where coalescing
    two affinities together is conservative although coalescing either
    one alone is not: "to get a sequence of coalescings that is
    conservative at each step, one would need to consider affinities
    obtained by transitivity".  This module implements exactly that
    brute-force extension: when no single affinity can be coalesced
    conservatively, try small *sets* of open affinities simultaneously
    (merging every pair in the set and re-checking
    greedy-k-colorability of the whole graph in linear time, as the
    paper suggests). *)

val coalesce : ?max_set:int -> Problem.t -> Coalescing.solution
(** Runs the brute-force singleton pass to a fixpoint, then tries sets
    of 2, 3, ... up to [max_set] (default 2) open affinities by
    decreasing combined weight, restarting from singletons after each
    successful set merge.  The result is always conservative.
    Exponential in [max_set] only (the set enumeration is
    O(m^max_set)).  Raises [Invalid_argument] if [max_set < 1].

    The singleton fixpoints run through one persistent
    {!Conservative.Engine}, and the size-2 enumeration is pruned with
    cached interference/witness facts; the search trajectory — and
    hence the result — is identical to rescanning and enumerating
    everything (the test-only oracle the differential suite holds this
    to).

    Prefer {!Strategies.run_cfg} for new call sites: [max_set] is the
    size of [Set_conservative] there; this entry point stays as the
    primitive the dispatcher calls. *)

val try_set :
  k:int -> Coalescing.Speculation.spec -> Problem.affinity list -> bool
(** [try_set ~k spec set] merges every affinity of [set] on top of the
    context and keeps the merges iff all are possible and the merged
    graph stays greedy-k-colorable; otherwise rolls them all back.  The
    set probe of {!coalesce}, shared with the test-only rescan
    oracle. *)

val subsets_by_weight :
  int -> Problem.affinity list -> Problem.affinity list list
(** All size-[n] subsets of the given affinities, each in input order,
    sorted by decreasing combined weight (ties by members, ascending).
    Exposed for the enumeration unit tests; the implementation is the
    accumulator form (linear in the output size), not the naive
    append-based recursion. *)

val transitive_closure_affinities : Problem.t -> Problem.affinity list
(** The affinities "obtained by transitivity": pairs (b, c) such that
    some vertex [a] has affinities to both [b] and [c], weighted by the
    minimum of the two weights.  Only pairs that do not interfere and
    are not already affinities are returned.  Exposed so strategies can
    widen their affinity set the way Section 4 describes. *)
