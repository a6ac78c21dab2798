(** Synthetic coalescing-challenge instances.

    Substitute for the Appel–George coalescing-challenge corpus (see
    DESIGN.md): seeded random structured programs are SSA-constructed,
    spilled everywhere until Maxlive <= k, and their interference graph
    plus phi/move affinities form the coalescing instance.  By
    Theorem 1 the graph is chordal with omega <= k, hence k-colorable
    and (Property 1) greedy-k-colorable — precisely the two-phase
    regime in which the paper says conservative coalescing becomes hard
    in practice. *)

type instance = {
  problem : Rc_core.Problem.t;
  func : Rc_ir.Ir.func;  (** the spilled SSA program *)
  maxlive : int;
}

val generate :
  seed:int ->
  ?config:Rc_ir.Randprog.config ->
  ?move_aware:bool ->
  k:int ->
  unit ->
  instance
(** Deterministic in [seed].  Affinity weights are execution-frequency
    estimates: an affinity arising in a block nested under [d] loop
    headers weighs [10^min(d,3)].  With [move_aware] (default [true])
    the interference graph uses Chaitin's move refinement, which can
    break chordality; pass [false] for pure live-range-intersection
    interference, which keeps the instance chordal (Theorem 1) at the
    price of more constrained affinities. *)

val generate_batch :
  seed:int ->
  ?config:Rc_ir.Randprog.config ->
  ?move_aware:bool ->
  k:int ->
  count:int ->
  unit ->
  instance list
(** [count] instances with seeds [seed, seed+1, ...]. *)

val presets : (string * Rc_ir.Randprog.config) list
(** Named program shapes for {!generate}: ["tiny"], ["default"],
    ["branchy"], ["loopy"], ["wide"].  With [move_aware:false] every
    preset's instances satisfy the Theorem 1 invariants (strict SSA,
    chordal interference, omega = Maxlive) — asserted per preset by the
    challenge test suite via [Rc_check.Lint]. *)

(** {1 Challenge-scale synthetic instances}

    The SSA pipeline tops out around 10^3 vertices; the synthetic
    family below models only its live-range structure — a sweep where
    each virtual register is live over one contiguous interval and at
    most [maxlive] ranges overlap — and scales to 10^5 vertices.  The
    result is an interval graph: chordal with omega = [maxlive] (for
    [n >= maxlive]), i.e. exactly the regime of the paper's Theorem 1,
    with edge count bounded by [n * maxlive]. *)

val synthetic_stream :
  seed:int ->
  n:int ->
  maxlive:int ->
  ?affinity_fraction:float ->
  edge:(int -> int -> unit) ->
  affinity:(int -> int -> int -> unit) ->
  unit ->
  unit
(** Streams the instance instead of materializing it: [edge u v] fires
    once per interference (u < v, grouped by the larger endpoint) and
    [affinity u v w] once per move-boundary affinity with weight [w]
    (endpoints never interfere).  Deterministic in [seed]; O(n *
    maxlive) time, O(maxlive) state.  [affinity_fraction] (default
    0.3) is the probability that a range eviction at a birth point
    carries an affinity. *)

type synthetic_instance = { problem : Rc_core.Problem.t; maxlive : int }

val synthetic :
  seed:int ->
  n:int ->
  maxlive:int ->
  ?affinity_fraction:float ->
  ?k:int ->
  unit ->
  synthetic_instance
(** Materialized form of {!synthetic_stream} as a coalescing problem
    over the persistent graph ([k] defaults to [maxlive], the chromatic
    number for [n >= maxlive]). *)

val clustered :
  seed:int ->
  gadgets:int ->
  size:int ->
  maxlive:int ->
  ?affinity_fraction:float ->
  ?k:int ->
  unit ->
  synthetic_instance
(** [gadgets] independent {!synthetic} interval sweeps of [size]
    vertices each, packed into one [gadgets * size]-vertex problem on
    disjoint vertex ranges (gadget [g] owns [g*size .. g*size+size-1])
    with per-gadget derived seeds.  No edge or affinity crosses
    gadgets, so the interference ∪ affinity union graph falls apart
    into components of at most [size] vertices — the decomposable
    regime the exact portfolio ([exact:race]) is built for, at instance
    sizes where a monolithic exact search is refused.  [k] defaults to
    [maxlive]. *)

val leaderboard :
  Rc_core.Strategies.t list -> instance list -> (string * float * float * bool) list
(** For each strategy: (name, average fraction of move weight coalesced,
    total time in seconds, all solutions conservative).  Sorted by
    decreasing coalesced fraction — the challenge metric. *)
