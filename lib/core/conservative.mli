(** Conservative coalescing heuristics (Section 4).

    All entry points take a problem whose graph is expected to be
    greedy-k-colorable already (the two-phase setting of Appel–George:
    spilling is done, coalescing must not break colorability) and return
    a solution whose coalesced graph is still greedy-k-colorable. *)

type rule =
  | Briggs  (** Briggs' test only *)
  | George  (** George's test, tried in both orientations *)
  | Briggs_george  (** either of the two (the paper's recommendation) *)
  | Briggs_george_extended  (** adds the extended George exemption *)
  | Brute_force
      (** merge aggressively and re-check greedy-k-colorability of the
          whole graph in linear time — the strongest incremental
          conservative test Section 4 mentions *)

val rule_name : rule -> string

val coalesce : rule -> Problem.t -> Coalescing.solution
(** Worklist conservative coalescing: affinities are processed by
    decreasing weight; an affinity is coalesced when the rule accepts it
    on the current graph; rejected affinities are retried after every
    successful merge until a fixpoint (merging lowers degrees and can
    enable previously rejected tests).  The fixpoint runs on the
    {!Engine}: per-pass work proportional to the affinities whose
    verdict could have changed, with the merge sequence of a full
    rescan per pass (the differential suites hold it to that rescan
    loop, kept as a test-only oracle).

    Prefer {!Strategies.run_cfg} for new call sites; this entry point
    stays as the primitive the dispatcher calls. *)

val coalesce_state :
  rule ->
  k:int ->
  Coalescing.state ->
  Problem.affinity list ->
  Coalescing.state
(** The same worklist loop starting from an existing merge state —
    building block for {!Optimistic} re-coalescing passes. *)

val local_test :
  rule -> Rc_graph.Flat.t -> k:int -> int -> int -> bool
(** [local_test rule f ~k iu iv]: does the local rule accept merging the
    class roots [iu], [iv] of [f]?  Reads the graph, never mutates it.
    Raises [Invalid_argument] on [Brute_force], whose verdict is global
    (merge, re-check greedy-k-colorability of the whole graph). *)

(** {1 The incremental engine}

    The worklist fixpoint — identical merge sequence, pass for pass, to
    rescanning every open affinity per pass — computed without the
    rescans: a {!Rule_cache} tracks exactly which affinities could have
    changed verdict since their last rejection (generation stamps for
    the local rules, residue witnesses for brute force), and each pass
    visits only those.  Searches that own a long-lived speculation context
    ({!Set_coalescing}) keep the engine across their own probes: its
    cache rides the context's marks, so rollbacks restore verdict
    validity automatically. *)

module Engine : sig
  type t

  val create :
    rule -> k:int -> Coalescing.Speculation.spec -> Problem.affinity list -> t
  (** Sorts the affinities into fixpoint rank order, registers them
      with a fresh {!Rule_cache} and attaches it to the context
      ([Invalid_argument] if one is already attached).  Affinities all
      start dirty. *)

  val run : t -> unit
  (** Run passes to quiescence (a pass with no merge).  Re-entrant:
      after external merges on the same context dirty some affinities,
      [run] continues from the cached state. *)

  val cache : t -> Rule_cache.t
  val stats : t -> Rule_cache.stats

  val iter_open : t -> (int -> Problem.affinity -> unit) -> unit
  (** Iterate the affinities not yet coalesced (rank order), with their
      engine ids — {!Set_coalescing} enumerates candidate sets from
      these and prunes through {!Rule_cache.witness}. *)
end
