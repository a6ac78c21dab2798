(** Kernel sanitizer: layer 2 of the checking stack (DESIGN.md).

    Installs global monitors on the two speculation kernels — the
    {!Rc_graph.Flat} undo log and the {!Rc_core.Coalescing.Speculation}
    context — and asserts, at every speculation event:

    - undo-log balance: after a rollback the log sits exactly at the
      checkpoint's position, and closing the outermost scope leaves an
      empty log (a truncated or over-replayed log fails here);
    - checkpoint-depth pairing: the depth never goes negative and a
      released inner scope never leaves the log shorter than its
      opening position;
    - adjacency symmetry and degree consistency, sampled: a rotating
      cursor re-verifies a few vertices per event
      ({!Rc_graph.Flat.check_vertex}), so every vertex is eventually
      audited at O(1) amortized vertices per event;
    - union-find parent acyclicity and merge-log agreement, sampled per
      speculation event and in full at every commit
      ({!Rc_core.Coalescing.Speculation.self_check});
    - mirror-vs-persistent agreement at every commit: the flat mirror,
      converted back, must equal the committed persistent graph.

    Violations raise [Failure] with a ["Rc_check.Sanitize: ..."]
    message, at the event where the corruption became observable.

    Enablement: hot paths are unaffected in release builds (monitors
    default to [None]; the kernels pay one load + branch per
    checkpoint/rollback/release/merge/commit).  {!install_if_enabled}
    turns the sanitizer on when the dune profile is [dev-checked] or
    the [RC_CHECKED] environment variable is set to anything but [0] or
    the empty string.

    Domain safety: installation and the hot-path audit counters are
    domain-local ({!Rc_graph.Flat.set_monitor} and
    {!Rc_core.Coalescing.Speculation.set_monitor} are domain-local
    hooks).  {!install} arms the calling domain only; the sweep
    engine's worker domains each call {!install_if_enabled} on startup,
    so a dev-checked parallel sweep is fully sanitized with no shared
    mutable state on the per-event path.  Each domain's tallies are
    folded into process-wide atomic totals by {!flush} — the pool
    flushes every participating domain at the end of each run — so the
    counter accessors report the whole fleet's audits, not the one
    domain-local copy that happens to be the caller's. *)

val profile : string
(** The dune profile this library was built under. *)

val enabled : unit -> bool
(** [profile = "dev-checked"] or [RC_CHECKED] set (non-empty, not ["0"]). *)

val install : unit -> unit
(** Unconditionally install both monitors. *)

val install_if_enabled : unit -> bool
(** {!install} when {!enabled}; returns whether the sanitizer is now
    installed. *)

val uninstall : unit -> unit
(** Remove both monitors. *)

val installed : unit -> bool

val flush : unit -> unit
(** Fold the calling domain's audit tallies into the process-wide
    totals (and zero the local copies).  Called by the sweep engine's
    pool for every participating domain at the end of each run; safe to
    call any time, from any domain, installed or not. *)

val events_seen : unit -> int
(** Number of speculation events audited since the library was loaded —
    the flushed process-wide total plus the calling domain's unflushed
    tally.  Tests assert this is non-zero to prove the sanitizer
    actually ran; after a parallel sweep it covers every worker
    domain's audits, not just the caller's. *)

val dense_rows_audited : unit -> int
(** Number of sampled-vertex audits that fell on a bitset row — i.e.
    how often the word/list-agreement and popcount-vs-degree checks of
    {!Rc_graph.Flat.check_vertex} actually ran against the dense
    representation.  Tests over bitset-rowed kernels assert this grows,
    proving the dense audit path is exercised and not just the sparse
    one. *)

val sparse_rows_audited : unit -> int
(** Same tally for sparse int rows. *)

(** {1 Serve-path observability}

    The coalescing server ({!Rc_engine} [Server]) reports every frame
    it decodes or rejects, every answer-cache decision and every
    serve-path certification verdict through the hooks below.  The
    counters ride the same domain-local-then-{!flush} machinery as the
    kernel audit tallies (pool tasks certify in worker domains; the
    pool flushes them at join), so after a serving session the
    accessors cover the whole fleet — [RC_CHECKED=1] serving is
    observable end to end.  Unlike the monitors these are always
    counted: one domain-local increment per frame is noise next to a
    socket read, and it keeps the server's STATS frame meaningful in
    release builds. *)

val note_frame_decoded : unit -> unit
val note_frame_rejected : unit -> unit
val note_cache_hit : unit -> unit
val note_cache_miss : unit -> unit

(** [note_instance_decoded ()]: a binary SOLVE payload was built into a
    [Problem.t].  The server keys binary requests on their validated
    bytes and builds the problem only inside a miss's solve task, so a
    cache hit never counts here.  Text requests are parsed in order to
    be keyed and are not counted. *)
val note_instance_decoded : unit -> unit

(** [note_cache_evicted ()]: an answer-cache entry was evicted to make
    room (LRU overflow), as opposed to an explicit flush. *)
val note_cache_evicted : unit -> unit

(** [note_profile_hit] / [note_profile_miss]: a fresh solve needed the
    instance's structural profile and found it in (or had to fill) the
    server's profile cache — the observable proof that a
    [Static_profile]-dispatching server is acting on cached analysis
    instead of re-profiling. *)
val note_profile_hit : unit -> unit
val note_profile_miss : unit -> unit
val note_certified : ok:bool -> unit

val frames_decoded : unit -> int
(** Well-formed frames accepted across every connection and domain. *)

val frames_rejected : unit -> int
(** Frames or requests answered with a typed {!Protocol.error}. *)

val serve_cache_hits : unit -> int
val serve_cache_misses : unit -> int
val instances_decoded : unit -> int
(** Binary payloads built into a problem; equal to {!serve_cache_misses}
    on all-binary traffic. *)

val serve_cache_evictions : unit -> int
val serve_profile_hits : unit -> int
val serve_profile_misses : unit -> int

val certified_ok : unit -> int
(** Serve-path answers that passed independent certification. *)

val certified_failed : unit -> int

(** {1 Portfolio-race observability}

    Linking this library arms {!Rc_core.Portfolio.set_monitor} at
    module initialization, so every completed [exact:race] is tallied
    here — winner identity, loser fates and worst cancel latency —
    whichever domain ran it.  Races are rare (one per [exact:race]
    solve), so these counters live behind one process-wide mutex
    instead of the domain-local staging above: totals are exact and
    immediately visible, no {!flush} needed.

    Accounting invariants (pinned by the portfolio test suite): the
    per-backend win counts of {!race_wins} sum to {!races_run}, and
    each race's losers appear in exactly one of
    {!race_losers_cancelled} or {!race_losers_finished}. *)

val races_run : unit -> int
(** Completed portfolio races since the library was loaded. *)

val race_wins : unit -> (string * int) list
(** Wins per backend name, sorted; sums to {!races_run}. *)

val race_losers_cancelled : unit -> int
(** Losing racers stopped through their cancel probe. *)

val race_losers_finished : unit -> int
(** Losing racers that ran to completion anyway (finished before
    observing the winner, failed certification, or crashed). *)

val race_worst_cancel_latency_ns : unit -> int
(** Worst observed winner-accepted-to-loser-unwound latency, in
    nanoseconds, across every cancelled loser. *)
