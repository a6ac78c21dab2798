(** The analysis-driven strategy router behind
    [Strategies.config.dispatch = Static_profile].

    Routing, per instance (after profiling with {!Profile.analyze}):

    - certified interval ([Interval_model]) → the {!Interval_walk}
      endpoint walk;
    - chordal (including unresolved-interval) → the Theorem-5
      polynomial path ([Chordal_incremental]);
    - [Exact_conservative] and [Exact_backend _] → full certified
      presolve ({!Presolve.run}), each part solved exactly by the
      requested registry backend ([exact:NAME] names it inline, plain
      [exact] means ["bb"]) with a heuristic incumbent as pruning
      oracle, after gating on the profile's degeneracy (the
      k-core bound: degeneracy [>= k] means the instance is not
      greedy-k-colorable and the direct path's typed error is
      preserved), then {!Presolve.lift_certified} back onto the
      original problem;
    - everything else (general graphs, and the [Irc] / [Aggressive]
      strategies, whose contracts the reductions do not cover) → the
      direct strategy.

    Every routed answer still claims what the named strategy claims, so
    [run_cfg]'s [Assert_conservative] post-check and the server's
    certification pass apply unchanged. *)

val install : unit -> unit
(** Registers {!solve} as the ["static"] router entry in the
    [Rc_core.Solver_backend] registry (capability [router], not
    [exact] — [exact:static] is refused with a typed error).
    Idempotent; call before spawning worker domains. *)

val solve :
  ?profile:Profile.t ->
  Rc_core.Strategies.config ->
  Rc_core.Strategies.t ->
  Rc_core.Problem.t ->
  Rc_core.Coalescing.solution
(** The router itself ([config.dispatch] is expected to be [Direct];
    recursion-safe either way only through {!install}).  [?profile]
    supplies an already-computed structural profile for [p] — the
    server passes its profile-cache entry here so a cache hit skips
    the top-level {!Profile.analyze}.  Routing is a pure function of
    the profile, so a cached profile yields the identical route (and
    answer) as a fresh one. *)
