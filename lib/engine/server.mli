(** Coalescing as a service: a persistent {e concurrent} server that
    accepts length-prefixed batched requests over a Unix-domain socket,
    TCP, or a stdin/stdout framing fallback, schedules them on one
    shared {!Pool}, and streams certified answers back in submission
    order per connection.

    {1 Concurrency model}

    A listener domain ({!serve_unix} / {!serve_tcp}) polls the
    listening socket and spawns one {e session domain} per accepted
    connection, up to [config.max_conns] live sessions; connections
    beyond the bound are answered with the typed
    [Protocol.Server_busy] ERROR (code 11) and closed, so a client can
    retry.  Sessions share one solver pool — batch submissions
    serialize on the pool's submission mutex while connection I/O
    stays concurrent, which is what keeps a slow or stalled client
    from blocking a fast one: the fast client's batches keep being
    accepted, executed and answered while the slow one sits in its
    read.  The answer and profile caches are guarded by one cache
    mutex (lock order: pool submission, then cache; the cache mutex is
    a leaf — never held across a solve or any I/O), and all counters
    are atomics or domain-local {!Rc_check.Sanitize} tallies flushed
    at session end, so hit/miss/eviction accounting stays exact under
    contention.

    The byte-identity invariant survives the concurrency: every
    streamed ANSWER is byte-identical to {!one_shot} for the same
    instance and strategy, whatever the interleaving of connections,
    batches, cache state or dispatch mode.

    SHUTDOWN drains the whole server: the receiving session answers
    its own pending requests, sets the stop flag, waits for every
    other in-flight session to finish (sessions parked at a frame
    boundary notice the flag within one poll tick; after a grace
    period, readers blocked mid-frame are forced off their sockets and
    exit through the [Truncated_frame] path), and only then sends BYE.

    {1 Wire protocol}

    Every message is one frame (DESIGN.md "Coalescing as a service" is
    the normative spec):

    {v
    byte 0..1   magic "RC"
    byte 2      frame type
    byte 3      flags (must be 0)
    byte 4..7   payload length, unsigned little-endian 32-bit
    then        payload
    v}

    Request types: [0x01] SOLVE, [0x02] PING, [0x03] STATS, [0x04]
    FLUSH, [0x05] SHUTDOWN.  Response types: [0x81] ANSWER, [0x82]
    ERROR, [0x83] PONG, [0x84] STATS, [0x85] BYE.

    A SOLVE payload is [enc:u8] (0 = binary {!Rc_challenge.Instance_io}
    encoding, 1 = text format), [slen:u8], [slen] bytes of strategy
    token (empty = every heuristic, the one-shot CLI default), then the
    instance bytes.  An ANSWER payload is [cache:u8] (1 = served from
    the answer cache), [cert:u8] (0 = certification off, 1 = every
    claimed answer certified), then the answer text — byte-identical to
    the one-shot CLI output for the same instance and strategy
    ({!one_shot}), whatever the batch size, domain count or cache
    state.  An ERROR payload is [code:u8] ({!Rc_check.Protocol.code})
    then a diagnostic message.

    {1 Batching and scheduling}

    Each SOLVE is keyed as it is read, in submission order, and
    classified at once: a cache hit (or an [all]-subsumption hit, see
    below) queues the stored answer, a repeat of a miss already queued
    in the batch aliases that miss, and a refusal queues its typed
    error.  Only a miss copies its instance out of the read buffer.
    The queue is executed — one solve fan-out over the distinct misses
    on the {!Pool}, each task building its own problem — when a FLUSH
    (or any non-SOLVE frame, or end of stream) arrives, or when the
    connection has no more bytes ready, so an interactive client gets
    its answer immediately while a saturating client gets whole-batch
    parallelism.  A batch of hits never touches the pool.  Answers
    always stream back in submission order.

    {1 Caching and certification}

    Answers are cached under a canonical key — the hash of the
    instance's canonical RCBI encoding plus the strategy and dispatch
    tokens ([hash|strategy|dispatch]) — so resubmitting a graph is
    near-free: the reply is the stored bytes with the cache flag set.
    A binary request is keyed on its own payload bytes, validated and
    hashed in place ({!Rc_challenge.Instance_io.key_binary}): RCBI is
    canonical, so those bytes are the encoding, and a hit builds no
    problem at all (the [instances_decoded] STATS counter equals
    [cache_misses] on all-binary traffic).  A text request is parsed
    and keyed on {!Rc_challenge.Instance_io.canonical_hash} of the
    result, the same value, so text and binary submissions of one
    instance share a key.
    Repeats {e within} one batch are detected too (the duplicate
    aliases the first occurrence's slot and reports a cache hit).
    When certification is on (the default), every answer whose
    strategy claims conservativeness is independently re-derived
    through {!Rc_check.Certify} before it is streamed; an answer that
    fails becomes a typed [Certification_failed] ERROR — the server
    never streams an uncertified claim.  Frames decoded, rejections,
    cache traffic and certification verdicts are all reported to
    {!Rc_check.Sanitize}, so an [RC_CHECKED=1] serving session is
    observable end to end.

    {1 Memory}

    Each session reads every frame into one buffer of its own, grown to
    the largest frame that session has sent and reused for every later
    read; it is freed with the session.  Hits therefore allocate no
    per-frame payload: a cache hit costs the key, the lookup and the
    reply.  A queued miss holds a copy of its instance bytes (or its
    parsed problem) until its batch has run.

    {1 Error handling}

    Frame-layer errors (bad magic or flags, unknown type, oversized
    length, truncation / mid-stream disconnect) poison the stream: the
    server reports the typed error and closes that connection — and
    only it.  Request-layer errors (malformed SOLVE envelope,
    undecodable instance, unknown strategy) condemn one request; the
    connection keeps serving.  The server itself survives arbitrary
    garbage: the protocol fuzz suite drives hundreds of mutated frames
    through a live server and asserts liveness and zero leaked
    connections afterwards. *)

module Wire : sig
  (** Frame constants and codec, exposed so clients, the fuzz suite and
      external tooling share one byte-layout definition. *)

  val magic : string  (** ["RC"] *)

  val header_bytes : int  (** 8 *)

  val req_solve : int
  val req_ping : int
  val req_stats : int
  val req_flush : int
  val req_shutdown : int
  val resp_answer : int
  val resp_error : int
  val resp_pong : int
  val resp_stats : int
  val resp_bye : int

  val max_payload_default : int  (** 64 MiB *)

  val encode_frame : typ:int -> string -> string
  (** Header + payload, ready to write. *)

  val solve_payload :
    ?strategy:string -> encoding:[ `Binary | `Text ] -> string -> string
  (** SOLVE envelope around instance bytes. *)
end

type t
(** A server: a domain pool, an answer cache, and counters.  One [t]
    can serve any number of consecutive connections and sessions. *)

type config = {
  domains : int;  (** pool size, caller's domain included *)
  certify : bool;  (** certify claimed-conservative answers (default on) *)
  cache_capacity : int;
      (** answer-cache entry cap: inserting past it evicts the
          least-recently-used entry (one eviction per insert, counted
          by [Rc_check.Sanitize.serve_cache_evictions] and reported in
          STATS); the profile cache is bounded the same way.  The only
          wholesale clear is the explicit {!flush_cache}. *)
  max_payload : int;  (** per-frame payload byte limit *)
  max_conns : int;
      (** live-session bound: the listener refuses connection
          [max_conns + 1] with [Protocol.Server_busy] (code 11) while
          that many session domains are live *)
  dispatch : Rc_analysis.Dispatch.mode;
      (** [Static_profile] routes every served solve through
          {!Rc_analysis.Dispatch.run} acting on the server's profile
          cache: a profile-cache hit feeds the cached analysis
          straight to the router, skipping the re-profiling.  Routing
          is a pure function of the profile, so a cached profile never
          changes bytes: every served answer is byte-identical to
          {!one_shot} under the same dispatch mode — and to the CLI's
          [solve --dispatch static].  (Static routing may legitimately
          differ from [Direct]: the dispatcher substitutes polynomial
          structural algorithms where the profile licenses them; the
          two modes cache under distinct keys.) *)
}

val default_config : config
(** 1 domain, certification on, 4096 cache entries,
    {!Wire.max_payload_default}, 32 connections, direct dispatch. *)

val create : ?config:config -> unit -> t
(** Spawns the pool ([config.domains - 1] worker domains). *)

val destroy : t -> unit
(** Shuts the pool down.  Idempotent; the server is unusable after. *)

val with_server : ?config:config -> (t -> 'a) -> 'a

(** {1 Serving} *)

val serve_connection : t -> in_fd:Unix.file_descr -> out_fd:Unix.file_descr ->
  [ `Closed | `Shutdown ]
(** Serve one established byte stream until end of stream, a
    stream-poisoning protocol error, or a SHUTDOWN frame (answering
    pending requests first — the drain contract).  Does not close the
    descriptors.  [`Shutdown] means a SHUTDOWN frame was honored and
    the server's stop flag is now set. *)

val serve_unix : t -> path:string -> unit
(** Bind a Unix-domain socket at [path] (replacing a stale file) and
    run the concurrent listener: one session domain per accepted
    connection (up to [config.max_conns]; excess connections get the
    typed [Server_busy] refusal).  Returns once a SHUTDOWN frame has
    been honored and every session domain has been joined.  The socket
    file is unlinked on exit.  SIGPIPE is ignored for the duration: a
    client that disconnects mid-answer costs its connection, nothing
    more. *)

val serve_tcp :
  t -> ?ready:(int -> unit) -> host:string -> port:int -> unit -> unit
(** The same concurrent listener over TCP ([SO_REUSEADDR]; sessions
    get [TCP_NODELAY]).  [port = 0] binds an ephemeral port; [ready]
    is called with the bound port once the socket is listening —
    tests and supervisors use it to learn where to connect. *)

val serve_stdio : t -> unit
(** The framing fallback: serve exactly one session over
    stdin/stdout.  Returns on end of input or SHUTDOWN. *)

val active_connections : t -> int
(** Sessions live right now (the in-flight gauge) — the fuzz suite's
    leak detector. *)

val peak_connections : t -> int
(** High-water mark of {!active_connections} over the server's life. *)

val connections_served : t -> int
val requests_served : t -> int
val cache_entries : t -> int

val profiles_cached : t -> int
(** Entries in the structural-profile cache (canonical instance hash →
    [Rc_analysis.Profile.t], filled on every fresh solve).  Hits and
    misses are counted by [Rc_check.Sanitize.serve_profile_hits] /
    [serve_profile_misses]; under [dispatch = Static_profile] a hit is
    a solve routed on cached analysis. *)

val flush_cache : t -> unit
(** Explicit full clear of the answer and profile caches — the only
    wholesale reset (capacity pressure evicts one LRU entry at a
    time).  The FLUSH wire frame is unrelated: it is a batch barrier. *)

val stats_text : t -> string
(** The STATS response payload: one [key value] line per counter
    (frames, rejections, answer-cache traffic, [instances_decoded] —
    binary payloads built into a problem, which only misses do —,
    evictions, profile-cache traffic, certification verdicts,
    connections, requests, the
    in-flight / peak / bound connection gauges, cache sizes, domains),
    then up to eight [connection <id> requests <n>] lines for the live
    sessions, then up to eight [profile <hash> <summary>] lines for
    the most recently profiled instances.  Counters from other
    sessions' domains are exact once those sessions ended (each
    session flushes its tallies before its connection closes). *)

(** {1 The one-shot path} *)

val one_shot :
  ?dispatch:Rc_analysis.Dispatch.mode ->
  ?config:Rc_core.Strategies.config ->
  strategies:Rc_core.Strategies.t list ->
  Rc_core.Problem.t ->
  string
(** The canonical answer text: the instance's stats line, then one
    {!Rc_core.Strategies.pp_report_canonical} line per strategy, each
    solved by {!Rc_analysis.Dispatch.run} under [dispatch] (default
    [Direct]).  The CLI [solve] subcommand prints exactly this, and
    every served ANSWER carries exactly this — the byte-equality the
    differential suite asserts.  Deterministic in [(dispatch, config,
    strategies, problem)]. *)

(** {1 Client} *)

module Client : sig
  type response =
    | Answer of { cache_hit : bool; certified : bool; text : string }
    | Error of { code : int; message : string }
    | Pong
    | Stats of string
    | Bye

  type recv_result = Resp of response | Eof

  val connect : ?attempts:int -> string -> Unix.file_descr
  (** Connect to a server socket, retrying [attempts] times (default
      50, 20ms apart) to absorb server-startup races.  Raises
      [Unix.Unix_error] once out of patience. *)

  val connect_tcp : ?attempts:int -> string -> int -> Unix.file_descr
  (** Same, over TCP ([TCP_NODELAY] set): host, then port.  Retries
      absorb connection-refused startup races only. *)

  val send_solve :
    Unix.file_descr ->
    ?strategy:string ->
    encoding:[ `Binary | `Text ] ->
    string ->
    unit

  val send_ping : Unix.file_descr -> unit
  val send_flush : Unix.file_descr -> unit
  val send_stats : Unix.file_descr -> unit
  val send_shutdown : Unix.file_descr -> unit

  val recv : Unix.file_descr -> recv_result
  (** Next response frame.  Raises [Failure] on bytes that do not
      parse as a response frame (a server speaking garbage is a
      programming error on this side of the wire, not input). *)

  val close : Unix.file_descr -> unit
end
