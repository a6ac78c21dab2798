(** Named coalescing strategies — the contenders of the synthetic
    coalescing challenge (experiment E11), the quality-gap study (E12)
    and the domain-parallel sweep engine ({!Rc_engine.Sweep}).

    {!run_cfg} is the single solver entry point: one {!config} record
    carries the checking level and seed of a run.  The
    per-search entry points ([Conservative.coalesce],
    [Optimistic.coalesce], [Set_coalescing.coalesce ~max_set]) remain
    as the primitives this dispatcher calls — prefer {!run_cfg} in new
    code.  Profile-driven routing lives a layer above, in
    [Rc_analysis.Dispatch], which applies the same checks through
    {!checked}. *)

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
      (** exact optimum through one of {!exact_backends} —
          [Exact_backend "pb"] spells [exact:pb], [Exact_backend "race"]
          spells [exact:race].  {!of_string} yields no other name;
          {!run_cfg} raises [Invalid_argument] on a hand-built one. *)

val name : t -> string

val exact_backends : string list
(** The exact backends, in this order: ["bb"] (the branch-and-bound),
    ["pb"] ({!Pb}, the pseudo-boolean core) and ["race"]
    ({!Portfolio.conservative_race}, bb against pb per union
    component).  A closed set: nothing can add to it at run time. *)

val of_string : string -> (t, string) result
(** Inverse of {!name}, also accepting the short CLI tokens
    ([briggs], [briggs-george-ext], [irc], [set2], [set3], [chordal],
    ...) and the backend-qualified exact spellings ([exact], and
    [exact:NAME] for each NAME of {!exact_backends}).  Any other
    [exact:NAME] is an [Error] that lists the known names, so a typo is
    refused at parse time by every front end.  The one
    strategy-spelling table every front end (CLI subcommands,
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

type config = {
  check : check_level;
  seed : int;
      (** provenance: the seed stream that produced this task's
          instance.  No current strategy draws randomness, so the field
          only documents the run (sweep reports record it); a future
          randomized strategy must draw from it and nothing else, or
          domain-parallel runs stop being reproducible. *)
}

val default_config : config
(** [{ check = No_check; seed = 0 }] *)

val solve_exact :
  ?stop:(unit -> bool) ->
  ?prime:Coalescing.solution ->
  string ->
  Problem.t ->
  Coalescing.solution
(** [solve_exact name p] runs the exact backend [name] (one of
    {!exact_backends}) on [p].  [?stop] is the cooperative {!Cancel}
    probe; [?prime] an optional known-feasible incumbent that prunes
    the search.  Raises [Invalid_argument], naming the known backends,
    for any other [name].  {!run_cfg} and the dispatcher's presolved
    parts both solve through it. *)

val checked :
  config -> t -> Problem.t -> (unit -> Coalescing.solution) ->
  Coalescing.solution
(** [checked cfg s p solve] runs [solve ()] under [cfg.check]: the
    input validation before it and the conservative assertion on its
    answer (see {!check_level}), exactly as {!run_cfg} applies them.
    For solvers outside this library that answer for [s] — the
    [Rc_analysis.Dispatch] router. *)

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

val evaluate_with :
  (t -> Problem.t -> Coalescing.solution) -> t -> Problem.t -> report
(** [evaluate_with solve s p] times [solve s p] on the monotonic clock
    and reports it, with the race provenance if a portfolio ran. *)

val evaluate_cfg : config -> t -> Problem.t -> report
(** [evaluate_with (run_cfg cfg)]. *)

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
