(** Strategy-by-instance evaluation sweeps on the domain pool — the
    multi-instance leaderboard of the synthetic coalescing challenge,
    fanned out over every core.

    A sweep is a preset (an instance family and count) crossed with a
    strategy list.  Each (strategy, instance) cell is one pool task:
    it derives its own seed stream from the root seed and the cell
    index ({!Seed}), runs {!Rc_core.Strategies.evaluate_cfg} on its own
    flat kernel, and lands its report in the index-ordered result
    array.  Reports are split into a {e canonical} part (weights,
    counts, conservativeness — everything deterministic) and a timing
    part; the canonical rendering is byte-identical at any domain
    count, which the engine test suite asserts at 1, 2 and 4 domains.

    Scale ceilings: the challenge-scale presets reach 10^5 vertices,
    where the persistent-rebuild-heavy strategies (aggressive commit,
    brute-force re-checks, optimistic, set probes) and the per-affinity
    clique-tree strategy (chordal-incremental) are not yet feasible —
    their asymptotics, not the engine, are the bound.  Each strategy
    declares a vertex ceiling ({!scale_ceiling}); a cell over the
    ceiling reports [Capped] instead of timing out the sweep, and the
    leaderboard marks the row.  The ceilings encode the measured
    single-core behaviour documented in DESIGN.md; raising one is a
    conscious perf PR, not a config tweak. *)

type source =
  | Synthetic of { n : int; maxlive : int; affinity_fraction : float }
      (** interval-graph live-range sweep
          ({!Rc_challenge.Challenge.synthetic}), the 10^5-vertex family *)
  | Ssa of { k : int }
      (** SSA-pipeline challenge instance
          ({!Rc_challenge.Challenge.generate}), ~10^3 vertices *)
  | Clustered of {
      gadgets : int;
      size : int;
      maxlive : int;
      affinity_fraction : float;
    }
      (** [gadgets] disjoint interval sweeps of [size] vertices in one
          instance ({!Rc_challenge.Challenge.clustered}) — decomposable
          structure the exact portfolio solves at vertex counts where a
          monolithic exact search is refused *)

type preset = { sname : string; sources : source list }
(** One sweep instance per list element, in order; instance [i] derives
    its seed from the root seed and [i] exactly as before, so presets
    that repeat a source still get distinct instances. *)

val presets : preset list
(** [smoke] (2 x 2k-vertex synthetic), [ssa] (4 SSA instances), [10k]
    (2 synthetic instances at 10^4 plus one clustered 10^4 — the
    portfolio cell) and [100k] (2 synthetic instances at 10^5). *)

val preset_of_string : string -> (preset, string) result

val n_instances : preset -> int
(** [List.length preset.sources]. *)

val instance_problems : seed:int -> preset -> Rc_core.Problem.t array
(** Exactly the instances a sweep at [~seed] over [preset] evaluates
    (same {!Seed} split per index), built sequentially — the [analyze
    --preset] entry point profiles what the sweep would run. *)

val scale_ceiling : Rc_core.Strategies.t -> int
(** Largest vertex count the strategy is swept at (see above). *)

type outcome =
  | Report of Rc_core.Strategies.report
  | Capped of { ceiling : int }
      (** instance larger than {!scale_ceiling} — not attempted *)
  | Failed of string
      (** the strategy rejected the instance ([Invalid_argument]);
          deterministic, so part of the canonical report *)

type cell = {
  strategy : string;
  instance : int;  (** index within the preset *)
  seed : int;  (** the task's seed-stream value (provenance) *)
  outcome : outcome;
}

type row = {
  rstrategy : string;
  score : float;  (** average coalesced fraction of total move weight *)
  weight : int;  (** summed coalesced weight over evaluated cells *)
  total_weight : int;
  all_conservative : bool;
  time_s : float;  (** summed solve time (monotonic clock) *)
  evaluated : int;  (** cells actually run *)
  capped : int;  (** cells skipped over the scale ceiling *)
}

type t = {
  preset : preset;
  root_seed : int;
  domains : int;
  cells : cell array;  (** strategy-major, index-ordered *)
  leaderboard : row list;  (** sorted by decreasing score, then name *)
  wall_s : float;  (** whole-sweep wall time (monotonic clock) *)
  classes : string array;
      (** per-instance [Rc_analysis.Profile.classification] — the class
          column of every cell line *)
  profiles : string array;
      (** per-instance [Rc_analysis.Profile.summary]; deterministic, so
          both profile arrays are part of the canonical report *)
}

val run :
  ?pool:Pool.t ->
  ?domains:int ->
  ?strategies:Rc_core.Strategies.t list ->
  ?check:Rc_core.Strategies.check_level ->
  seed:int ->
  preset ->
  t
(** Runs the sweep.  [pool] reuses an existing pool (its domain count
    wins); otherwise a fresh pool of [domains] (default
    {!Pool.recommended_domains}) is created for the call.  [strategies]
    defaults to {!Rc_core.Strategies.all_heuristics}; [check] is
    threaded into every cell's {!Rc_core.Strategies.config}. *)

val canonical : t -> string
(** The deterministic report: per-instance structural profiles, per-cell
    quality columns (instance class included) and the leaderboard, no
    timings.  Byte-identical at any [domains] for a fixed (preset, seed,
    strategies, check). *)

val pp : Format.formatter -> t -> unit
(** Prints {!canonical}. *)

val pp_timing : Format.formatter -> t -> unit
(** Per-strategy and whole-sweep timings (not part of the canonical
    report). *)

val to_json : t -> string
(** Full report as a JSON document: preset, seeds, domain count, every
    cell (including timings and outcomes) and the leaderboard. *)
