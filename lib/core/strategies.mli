(** Named coalescing strategies — the contenders of the synthetic
    coalescing challenge (experiment E11), the quality-gap study (E12)
    and the domain-parallel sweep engine ({!Rc_engine.Sweep}).

    {!run_cfg} is the single solver entry point: one {!config} record
    carries the checking level, seed and dispatch mode of a run.  The
    per-search entry points ([Conservative.coalesce],
    [Optimistic.coalesce], [Set_coalescing.coalesce ~max_set]) remain
    as the primitives this dispatcher calls — prefer {!run_cfg} in new
    code. *)

type t =
  | Aggressive  (** greedy aggressive (colorability ignored) *)
  | Conservative of Conservative.rule
  | Irc of Irc.rule
  | Optimistic
  | Chordal_incremental
      (** Theorem 5 driven: affinities by decreasing weight, each
          decided by the polynomial chordal test and merged with its
          certificate chain; requires a chordal input graph and falls
          back to brute-force conservative on non-chordal ones. *)
  | Set_conservative of int
      (** brute-force conservative extended with simultaneous coalescing
          of affinity sets up to the given size — the "affinities by
          transitivity" remedy of Section 4 (see {!Set_coalescing}).
          {!run_cfg} raises [Invalid_argument] on a size [< 1]. *)
  | Exact_conservative
      (** exact optimum through the ["bb"] backend, the
          branch-and-bound (small instances): solved as
          [Exact_backend "bb"] is, under its own name *)
  | Exact_backend of string
      (** exact optimum through the named {!Backend} registry entry —
          [Exact_backend "pb"] spells [exact:pb], [Exact_backend "race"]
          spells [exact:race].  Resolution happens at solve time;
          {!run_cfg} raises {!Backend.Unknown_backend} for names nobody
          registered. *)

val name : t -> string

val of_string : string -> (t, string) result
(** Inverse of {!name}, also accepting the short CLI tokens
    ([briggs], [briggs-george-ext], [irc], [set2], [set3], [chordal],
    ...) and the backend-qualified exact spellings ([exact],
    [exact:pb], [exact:race], [exact:NAME] for any registered NAME).
    The one strategy-spelling table every front end (CLI subcommands,
    [sweep --strategies], serve, client flag parsing, tests) shares. *)

val all_heuristics : t list
(** Every strategy except the exact one. *)

(** {1 Unified run configuration} *)

type check_level =
  | No_check  (** trust the input and the search (release default) *)
  | Validate_input
      (** {!Problem.validate} before solving; [Invalid_argument] with
          the offending errors otherwise *)
  | Assert_conservative
      (** [Validate_input] plus, for every strategy that promises a
          conservative result (all but {!Aggressive}), assert
          {!Coalescing.is_conservative} on the answer — [Failure]
          otherwise.  For the full independent re-derivation, see
          [Rc_check.Certify] (a layer above this library). *)

type dispatch =
  | Direct  (** run the named strategy's primitive as-is (default) *)
  | Static_profile
      (** route through the static instance analyzer: profile the
          instance, apply certified presolve, pick the polynomial path
          the structure admits (interval endpoint walk, chordal
          incremental) or prime the exact backend with a heuristic
          incumbent, and lift the answer back.  Requires
          [Rc_analysis.Dispatch.install] to have run (it registers the
          ["static"] router in the {!Backend} registry); [run_cfg]
          raises [Invalid_argument] otherwise. *)

type config = {
  check : check_level;
  seed : int;
      (** provenance: the seed stream that produced this task's
          instance.  No current strategy draws randomness, so the field
          only documents the run (sweep reports record it); a future
          randomized strategy must draw from it and nothing else, or
          domain-parallel runs stop being reproducible. *)
  dispatch : dispatch;
}

val default_config : config
(** [{ check = No_check; seed = 0; dispatch = Direct }] *)

(** {1 The solver-backend registry}

    First-class replacement for the old [set_static_dispatcher]
    option-ref: every extension of the solve path — a second exact
    solver, the portfolio racer, the [Rc_analysis] profile router — is
    a named {!Backend.backend} record, and every front end resolves
    names through the same table, so a backend registered once is
    reachable from [solve], [sweep] and [serve] alike.

    Builtins registered at module initialization: ["bb"] (the
    branch-and-bound), ["pb"] ({!Pb}), ["race"]
    ({!Portfolio.conservative_race}).  [Rc_analysis.Dispatch.install]
    adds ["static"] (the only [router] entry).  Also exposed at the
    library root as [Rc_core.Solver_backend]. *)

module Backend : sig
  type caps = {
    exact : bool;
        (** solves [Exact_conservative]-class requests: the answer is
            the certified optimum, suitable for [exact:NAME] spellings *)
    router : bool;
        (** a whole-config router (profile + presolve + delegate), only
            reachable through [dispatch = Static_profile] *)
  }

  type backend = {
    bname : string;  (** stable registry key, as spelled in [exact:NAME] *)
    describe : string;  (** one-line human description *)
    caps : caps;
    solve :
      ?stop:(unit -> bool) ->
      ?prime:Coalescing.solution ->
      config ->
      t ->
      Problem.t ->
      Coalescing.solution;
        (** [?stop] is the cooperative {!Cancel} probe; [?prime] an
            optional known-feasible incumbent.  Routers receive the
            caller's config (with [dispatch] reset to [Direct]) and the
            requested strategy; plain exact backends may ignore both. *)
  }

  exception Unknown_backend of { requested : string; known : string list }
  (** The typed lookup failure: raised by {!find_exn} (and thus by
      [run_cfg] on an unregistered [Exact_backend] name), carrying the
      registered names.  A printer is installed via
      [Printexc.register_printer]. *)

  val register : backend -> unit
  (** Publish (or replace, by name) an entry.  Safe to call
      concurrently; in practice registration happens at module
      initialization or [Dispatch.install] time, before domains spawn. *)

  val find : string -> backend option
  val find_exn : string -> backend

  val known : unit -> string list
  (** Registered names, sorted. *)
end

val run_cfg : config -> t -> Problem.t -> Coalescing.solution
(** The unified solve path: dispatches to the strategy's primitive with
    the configuration's knobs.  Deterministic for a fixed [(config, t,
    problem)] triple — the sweep engine relies on this to produce
    byte-identical reports at any domain count. *)

val run : t -> Problem.t -> Coalescing.solution
(** [run_cfg default_config].  Kept for the pre-config call sites;
    prefer {!run_cfg}. *)

type report = {
  strategy : string;
  coalesced_weight : int;
  total_weight : int;
  coalesced_count : int;
  affinity_count : int;
  conservative : bool;  (** final graph greedy-k-colorable *)
  time_s : float;
      (** solve time on the monotonic clock ({!Mclock}), not wall
          time — parallel sweeps would otherwise charge tasks for
          scheduler gaps and NTP steps *)
  provenance : string option;
      (** per-answer backend provenance — which portfolio racer won and
          what cancelling the losers cost ([None] when no race ran).
          Rendered by {!pp_report} only, never by
          {!pp_report_canonical}: race outcomes are timing-dependent
          and must not perturb the cached/differential byte contract. *)
}

val evaluate_cfg : config -> t -> Problem.t -> report

val evaluate : t -> Problem.t -> report
(** [evaluate_cfg default_config].  Kept for the pre-config call sites;
    prefer {!evaluate_cfg}. *)

val pp_report : Format.formatter -> report -> unit

val pp_report_canonical : Format.formatter -> report -> unit
(** {!pp_report} without the trailing wall time — every field is a
    deterministic function of [(config, strategy, problem)], so this is
    the rendering whose bytes the serving stack caches and the
    differential suites compare ({!pp_report} is this plus [time_s]). *)

val report_of_solution : t -> Problem.t -> Coalescing.solution -> report
(** Report fields of an already-computed solution ([time_s] = 0) — for
    callers that need both the solution (e.g. to certify it) and the
    report without solving twice. *)
