(** The analysis-driven strategy router, and the routing mode every
    front end (CLI [solve] and [serve], the server, the bench) passes
    down explicitly.

    Routing, per instance (after profiling with {!Profile.analyze}):

    - certified interval ([Interval_model]) → the {!Interval_walk}
      endpoint walk;
    - chordal (including unresolved-interval) → the Theorem-5
      polynomial path ([Chordal_incremental]);
    - [Exact_conservative] and [Exact_backend _] → full certified
      presolve ({!Presolve.run}), each part solved exactly by the
      requested backend through [Strategies.solve_exact] ([exact:NAME]
      names it inline, plain [exact] means ["bb"]) with a heuristic
      incumbent as pruning oracle, after gating on the profile's
      degeneracy (the k-core bound: degeneracy [>= k] means the
      instance is not greedy-k-colorable and the direct path's typed
      error is preserved), then {!Presolve.lift_certified} back onto
      the original problem;
    - everything else (general graphs, and the [Irc] / [Aggressive]
      strategies, whose contracts the reductions do not cover) → the
      direct strategy.

    Every routed answer still claims what the named strategy claims, so
    the [Assert_conservative] post-check and the server's certification
    pass apply unchanged. *)

type mode =
  | Direct  (** [Strategies.run_cfg]: the named strategy's primitive *)
  | Static_profile  (** profile first, then route as above *)

val run :
  ?profile:Profile.t ->
  mode ->
  Rc_core.Strategies.config ->
  Rc_core.Strategies.t ->
  Rc_core.Problem.t ->
  Rc_core.Coalescing.solution
(** [run mode cfg s p]: [Direct] is [Strategies.run_cfg cfg s p];
    [Static_profile] routes inside [Strategies.checked cfg s p], so
    [cfg.check] validates the input and asserts the conservative claim
    on the routed answer exactly as [run_cfg] does on a direct one.
    [?profile] (ignored by [Direct]) supplies an already-computed
    structural profile for [p] — the server passes its profile-cache
    entry so a cache hit skips the top-level {!Profile.analyze}.
    Routing is a pure function of the profile, so a cached profile
    yields the identical route (and answer) as a fresh one. *)
