(* Concurrency torture suite for coalescing as a service (PR 9).

   The server is now truly concurrent — a listener domain accepts
   connections and every session runs on its own domain against one
   shared pool — so this suite attacks exactly the properties that
   concurrency puts at risk:

   - differential under contention: 4 client domains submit
     overlapping preset+qcheck instance streams over live sockets
     (Unix and TCP); every answer must be byte-identical to
     Server.one_shot whatever the interleaving, the answer-cache
     hit/miss deltas must sum exactly to the number of requests
     (counters are atomics and flushed domain-local tallies — races
     may shift a hit into a miss, never lose a count), and no file
     descriptor may leak (counted via /proc/self/fd before and after);
   - deterministic accounting: with a single client the eviction
     stream is deterministic, so the Sanitize eviction delta is
     asserted exactly (answer and profile caches evict in lockstep);
   - fault injection: mid-frame disconnects, a half-header-and-stall
     connection, and a die-after-SOLVE client must each cost at most
     their own connection.  A stalled client must not block a fast
     one (timed: the fast answer arrives in under 2 s while the stall
     holds), SHUTDOWN must drain in-flight sessions — forcing readers
     stuck mid-frame off their sockets with the typed truncation
     error — before BYE, and connections past [max_conns] must be
     refused with the typed Server_busy code while the live sessions
     keep answering;
   - server-side static dispatch: with [dispatch = Static_profile]
     the served solve routes through the Rc_analysis dispatcher
     acting on the server's profile cache — the second submission of
     an instance is a profile-cache hit (counted by Sanitize), and
     the answers stay byte-identical to one_shot under the same
     dispatch mode (routing is a pure function of the profile, so
     the cached profile never changes bytes). *)

module Io = Rc_challenge.Instance_io
module Server = Rc_engine.Server
module Client = Rc_engine.Server.Client
module Wire = Rc_engine.Server.Wire
module Protocol = Rc_check.Protocol
module Sanitize = Rc_check.Sanitize
module Strategies = Rc_core.Strategies

(* ------------------------------------------------------------------ *)
(* Helpers (the test_server patterns, reused)                          *)
(* ------------------------------------------------------------------ *)

let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rcc%d.%d.sock" (Unix.getpid ()) !sock_counter)

(* The finalizer's SHUTDOWN must retry until it sees BYE: right after
   a torture phase the connection slots can still be pinned by
   not-yet-reaped sessions, and a SHUTDOWN swallowed by a Server_busy
   refusal would leave the listener running and the join hanging. *)
let shutdown_until_bye connect =
  let rec go n =
    if n = 0 then ()
    else
      match connect () with
      | exception _ -> () (* the server is already gone *)
      | fd ->
          let bye =
            Fun.protect
              ~finally:(fun () -> Client.close fd)
              (fun () ->
                try
                  Client.send_shutdown fd;
                  match Client.recv fd with
                  | Client.Resp Client.Bye -> true
                  | _ -> false
                with _ -> false)
          in
          if not bye then begin
            Unix.sleepf 0.05;
            go (n - 1)
          end
  in
  go 100

let with_serving ?config f =
  let path = fresh_sock () in
  Server.with_server ?config (fun t ->
      let d = Domain.spawn (fun () -> Server.serve_unix t ~path) in
      Fun.protect
        ~finally:(fun () ->
          shutdown_until_bye (fun () -> Client.connect ~attempts:5 path);
          Domain.join d)
        (fun () -> f t path))

let with_serving_tcp ?config f =
  Server.with_server ?config (fun t ->
      let port = Atomic.make 0 in
      let d =
        Domain.spawn (fun () ->
            Server.serve_tcp t
              ~ready:(fun p -> Atomic.set port p)
              ~host:"127.0.0.1" ~port:0 ())
      in
      let rec wait_port n =
        if Atomic.get port = 0 then
          if n = 0 then Alcotest.fail "TCP server did not come up"
          else begin
            Unix.sleepf 0.02;
            wait_port (n - 1)
          end
      in
      wait_port 250;
      Fun.protect
        ~finally:(fun () ->
          shutdown_until_bye (fun () ->
              Client.connect_tcp ~attempts:5 "127.0.0.1" (Atomic.get port));
          Domain.join d)
        (fun () -> f t (Atomic.get port)))

let with_timeout fd =
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
  fd

let recv_answer ~what fd =
  match Client.recv fd with
  | Client.Resp (Client.Answer { cache_hit; certified; text }) ->
      (cache_hit, certified, text)
  | Client.Resp (Client.Error { code; message }) ->
      Alcotest.failf "%s: server error %d: %s" what code message
  | Client.Resp _ -> Alcotest.failf "%s: unexpected response type" what
  | Client.Eof -> Alcotest.failf "%s: connection closed" what

let recv_error ~what fd =
  match Client.recv fd with
  | Client.Resp (Client.Error { code; message }) -> (code, message)
  | Client.Resp _ -> Alcotest.failf "%s: expected an ERROR frame" what
  | Client.Eof -> Alcotest.failf "%s: connection closed before the error" what

let rec write_all fd s ofs len =
  if len > 0 then
    match Unix.write_substring fd s ofs len with
    | n -> write_all fd s (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s ofs len

let send_raw fd s = write_all fd s 0 (String.length s)

let solve_roundtrip ~what fd bin =
  Client.send_solve fd ~encoding:`Binary bin;
  Client.send_flush fd;
  recv_answer ~what fd

(* Sessions finish asynchronously (their domains flush counters and
   close their fds moments after the client side closes), so every
   "after" observation is a wait-until-deadline, then one final exact
   check. *)
let eventually ~what ?(deadline = 5.) pred =
  let limit = Unix.gettimeofday () +. deadline in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > limit then
      Alcotest.failf "%s: condition not reached within %gs" what deadline
    else begin
      Unix.sleepf 0.02;
      go ()
    end
  in
  go ()

let settle t =
  eventually ~what:"sessions settle" (fun () -> Server.active_connections t = 0)

let count_open_fds () = Array.length (Sys.readdir "/proc/self/fd")

(* ------------------------------------------------------------------ *)
(* Concurrent differential (Unix and TCP)                              *)
(* ------------------------------------------------------------------ *)

(* Preset and qcheck instances, all small enough that every heuristic
   stays sub-millisecond: the load is about interleaving, not solver
   wall time. *)
let corpus =
  lazy
    (let pname, pconfig = List.hd Rc_challenge.Challenge.presets in
     let presets =
       List.init 2 (fun i ->
           let inst =
             Rc_challenge.Challenge.generate ~seed:(300 + i) ~config:pconfig
               ~k:(6 + i) ()
           in
           ( Printf.sprintf "%s/%d" pname i,
             inst.Rc_challenge.Challenge.problem ))
     in
     let random =
       List.init 18 (fun i ->
           ( Printf.sprintf "qcheck/%d" i,
             Qcheck_gen.problem
               ~n:(14 + (i mod 11))
               ~n_affinities:(5 + (i mod 5))
               (200 + i) ))
     in
     presets @ random)

let clients = 4
let passes = 2

(* 4 client domains, each streaming the corpus twice with a
   client-specific rotation so distinct connections keep colliding on
   the same instances from different offsets.  Every answer is checked
   byte-for-byte inside the submitting domain; failures surface after
   the join. *)
let run_concurrent_differential ~seeds_name t connect =
  let corpus = Lazy.force corpus in
  let n = List.length corpus in
  let expected =
    List.map
      (fun (name, p) ->
        ( name,
          Io.to_binary p,
          Server.one_shot ~strategies:Strategies.all_heuristics p ))
      corpus
  in
  let arr = Array.of_list expected in
  (* Baseline after a probe connection: the listener socket and the
     probe's whole session life are behind us, so the fd census is
     stable before the storm. *)
  let probe = with_timeout (connect ()) in
  Client.send_ping probe;
  (match Client.recv probe with
  | Client.Resp Client.Pong -> ()
  | _ -> Alcotest.fail "probe connection did not pong");
  Client.close probe;
  settle t;
  let fd0 = count_open_fds () in
  let h0 = Sanitize.serve_cache_hits ()
  and m0 = Sanitize.serve_cache_misses ()
  and r0 = Server.requests_served t in
  let failure = Atomic.make None in
  let record m =
    if Atomic.get failure = None then Atomic.set failure (Some m)
  in
  let domains =
    List.init clients (fun c ->
        Domain.spawn (fun () ->
            try
              let fd = with_timeout (connect ()) in
              Fun.protect
                ~finally:(fun () -> Client.close fd)
                (fun () ->
                  for pass = 0 to passes - 1 do
                    for i = 0 to n - 1 do
                      (* Rotate by a client-specific stride so the four
                         streams overlap out of phase. *)
                      let j = (i + (c * 7) + (pass * 3)) mod n in
                      let name, bin, exp = arr.(j) in
                      let what =
                        Printf.sprintf "client %d pass %d %s" c pass name
                      in
                      let _, certified, text = solve_roundtrip ~what fd bin in
                      if text <> exp then
                        record (what ^ ": answer diverged from one_shot");
                      if not certified then record (what ^ ": not certified")
                    done
                  done)
            with e -> record (Printexc.to_string e)))
  in
  List.iter Domain.join domains;
  (match Atomic.get failure with
  | None -> ()
  | Some m -> Alcotest.failf "concurrent client: %s" m);
  settle t;
  (* Counter exactness: every request classifies exactly once as hit or
     miss, so the deltas must sum to the request count — under races a
     hit may degrade to a concurrent miss, but nothing is ever lost or
     double-counted.  (Each session flushes its domain-local tallies as
     it ends; wait for the last flush to land, then assert exactly.) *)
  let total = clients * passes * n in
  eventually ~what:"counter flushes land" (fun () ->
      Sanitize.serve_cache_hits () - h0 + (Sanitize.serve_cache_misses () - m0)
      = total);
  let hits = Sanitize.serve_cache_hits () - h0
  and misses = Sanitize.serve_cache_misses () - m0 in
  Alcotest.(check int) "hits + misses = requests" total (hits + misses);
  Alcotest.(check int)
    "requests_served agrees" total
    (Server.requests_served t - r0);
  Alcotest.(check bool)
    (Printf.sprintf "at least one miss per instance (misses %d)" misses)
    true (misses >= n);
  Alcotest.(check bool)
    (Printf.sprintf "the storm mostly hits the cache (hits %d)" hits)
    true
    (hits > 0);
  Alcotest.(check bool) "peak saw concurrent sessions" true
    (Server.peak_connections t >= 2);
  (* After the storm: every corpus answer is served from the cache,
     byte-identical, one seed per instance (the audited property). *)
  let fd = with_timeout (connect ()) in
  Fun.protect
    ~finally:(fun () -> Client.close fd)
    (fun () ->
      Qcheck_gen.run_seeds ~name:seeds_name ~count:n (fun seed ->
          let name, bin, exp = arr.(seed - 1) in
          let hit, _, text =
            solve_roundtrip ~what:("post-storm " ^ name) fd bin
          in
          Alcotest.(check string) (name ^ ": cached bytes intact") exp text;
          Alcotest.(check bool) (name ^ ": served from cache") true hit));
  settle t;
  eventually ~what:"file descriptors return to baseline" (fun () ->
      count_open_fds () = fd0);
  Alcotest.(check int) "no fd leak" fd0 (count_open_fds ())

let test_concurrent_unix () =
  let config = { Server.default_config with domains = 2 } in
  with_serving ~config (fun t path ->
      run_concurrent_differential ~seeds_name:"server.concurrent-cache" t
        (fun () -> Client.connect path))

let test_concurrent_tcp () =
  let config = { Server.default_config with domains = 2 } in
  with_serving_tcp ~config (fun t port ->
      run_concurrent_differential ~seeds_name:"server.concurrent-cache-tcp" t
        (fun () -> Client.connect_tcp "127.0.0.1" port))

(* ------------------------------------------------------------------ *)
(* Deterministic accounting: single-client eviction stream             *)
(* ------------------------------------------------------------------ *)

(* With one client the LRU traffic is deterministic: d distinct
   instances through capacity-c caches insert d entries into the
   answer cache AND d profiles into the profile cache, evicting
   (d - c) from each.  The Sanitize delta is asserted exactly —
   the proof that the mutex-guarded caches never double-count or
   drop an eviction. *)
let test_eviction_accounting () =
  let capacity = 4 and distinct = 7 in
  let config = { Server.default_config with cache_capacity = capacity } in
  let e0 = Sanitize.serve_cache_evictions ()
  and h0 = Sanitize.serve_cache_hits ()
  and m0 = Sanitize.serve_cache_misses () in
  with_serving ~config (fun t path ->
      let fd = with_timeout (Client.connect path) in
      Fun.protect
        ~finally:(fun () -> Client.close fd)
        (fun () ->
          for i = 0 to distinct - 1 do
            let p = Qcheck_gen.problem ~n:11 ~n_affinities:4 (600 + i) in
            let hit, _, _ =
              solve_roundtrip ~what:(Printf.sprintf "distinct %d" i) fd
                (Io.to_binary p)
            in
            Alcotest.(check bool)
              (Printf.sprintf "instance %d is a miss" i)
              false hit
          done;
          Alcotest.(check int) "answer cache at capacity" capacity
            (Server.cache_entries t);
          Alcotest.(check int) "profile cache at capacity" capacity
            (Server.profiles_cached t));
      settle t;
      let expected_evictions = 2 * (distinct - capacity) in
      eventually ~what:"eviction tally lands" (fun () ->
          Sanitize.serve_cache_evictions () - e0 = expected_evictions);
      Alcotest.(check int) "evictions exact (answer + profile)"
        expected_evictions
        (Sanitize.serve_cache_evictions () - e0);
      Alcotest.(check int) "no spurious hits" 0 (Sanitize.serve_cache_hits () - h0);
      Alcotest.(check int) "misses exact" distinct
        (Sanitize.serve_cache_misses () - m0))

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let base_problem = lazy (Qcheck_gen.problem ~n:13 ~n_affinities:5 91)

let base_expected =
  lazy
    (Server.one_shot ~strategies:Strategies.all_heuristics
       (Lazy.force base_problem))

let valid_solve_frame () =
  Wire.encode_frame ~typ:Wire.req_solve
    (Wire.solve_payload ~encoding:`Binary
       (Io.to_binary (Lazy.force base_problem)))

(* Three hostile clients, each costing at most its own connection:
   a mid-frame disconnect, a half-header-and-stall (held open while a
   fast client is timed through a full solve), and a client that dies
   right after SOLVE+FLUSH without reading its answer.  After each
   fault a fresh client must be served the exact one-shot bytes. *)
let test_fault_isolation () =
  with_serving (fun t path ->
      let bin = Io.to_binary (Lazy.force base_problem) in
      let expected = Lazy.force base_expected in
      let fast what =
        let fd = with_timeout (Client.connect path) in
        Fun.protect
          ~finally:(fun () -> Client.close fd)
          (fun () ->
            let t0 = Unix.gettimeofday () in
            let _, _, text = solve_roundtrip ~what fd bin in
            let dt = Unix.gettimeofday () -. t0 in
            Alcotest.(check string) (what ^ ": exact bytes") expected text;
            dt)
      in
      (* Fault 1: disconnect mid-frame (a strict prefix, then close). *)
      let fd = Client.connect path in
      send_raw fd (String.sub (valid_solve_frame ()) 0 11);
      Client.close fd;
      ignore (fast "after mid-frame disconnect");
      (* Fault 2: half a header, then stall with the socket held open.
         The stalled session is parked in its read; the fast client
         must be accepted, solved and answered while it holds — the
         timed non-blocking witness. *)
      let stalled = Client.connect path in
      send_raw stalled (String.sub (valid_solve_frame ()) 0 4);
      eventually ~what:"stalled session registers" (fun () ->
          Server.active_connections t >= 1);
      let dt = fast "while a client stalls mid-header" in
      Alcotest.(check bool)
        (Printf.sprintf "stalled client does not block a fast one (%.3fs)" dt)
        true (dt < 2.0);
      Client.close stalled;
      (* Fault 3: SOLVE+FLUSH, then die before reading the answer.  The
         server writes into a dead socket (SIGPIPE is ignored) and must
         shrug: only that connection dies. *)
      let fd = Client.connect path in
      Client.send_solve fd ~encoding:`Binary bin;
      Client.send_flush fd;
      Client.close fd;
      ignore (fast "after a die-after-SOLVE client");
      settle t)

(* SHUTDOWN drains the whole server: the drainer's own pending SOLVE
   is answered, a session stalled mid-frame is forced off its socket
   with the typed truncation error, and only then does BYE arrive —
   inside the drain window, not at its 10 s hard cap. *)
let test_shutdown_drains_stalled () =
  with_serving (fun t path ->
      let bin = Io.to_binary (Lazy.force base_problem) in
      let expected = Lazy.force base_expected in
      let stalled = with_timeout (Client.connect path) in
      send_raw stalled (String.sub (valid_solve_frame ()) 0 4);
      eventually ~what:"stalled session registers" (fun () ->
          Server.active_connections t >= 1);
      let drainer = with_timeout (Client.connect path) in
      Client.send_solve drainer ~encoding:`Binary bin;
      Client.send_shutdown drainer;
      let t0 = Unix.gettimeofday () in
      let _, _, text = recv_answer ~what:"drained pending answer" drainer in
      Alcotest.(check string) "pending answer drained exactly" expected text;
      (match Client.recv drainer with
      | Client.Resp Client.Bye -> ()
      | _ -> Alcotest.fail "expected BYE after the drain");
      let dt = Unix.gettimeofday () -. t0 in
      Alcotest.(check bool)
        (Printf.sprintf "drain completed inside the window (%.3fs)" dt)
        true (dt < 5.0);
      (* The stalled reader was forced off its socket: it sees the
         typed truncation error, then end of stream. *)
      let code, _ = recv_error ~what:"stalled session" stalled in
      Alcotest.(check int) "stalled session gets truncated-frame"
        (Protocol.code (Protocol.Truncated_frame { context = ""; wanted = 0; got = 0 }))
        code;
      (match Client.recv stalled with
      | Client.Eof -> ()
      | Client.Resp _ -> Alcotest.fail "stalled connection should be closed");
      Client.close stalled;
      Client.close drainer;
      settle t)

(* The connection bound: with max_conns = 2 and both sessions held
   live (proved by PING/PONG), a third connection gets the typed
   Server_busy refusal and a close; freeing a slot readmits. *)
let test_max_conns_refusal () =
  let config = { Server.default_config with max_conns = 2 } in
  with_serving ~config (fun t path ->
      (* Every client fd is registered for cleanup: a failed assertion
         must not leave held sessions pinning the server at its bound,
         or the with_serving finalizer's SHUTDOWN would itself be
         refused and the join would hang. *)
      let opened = ref [] in
      let connect () =
        let fd = with_timeout (Client.connect path) in
        opened := fd :: !opened;
        fd
      in
      let close fd =
        opened := List.filter (fun o -> o <> fd) !opened;
        Client.close fd
      in
      Fun.protect
        ~finally:(fun () ->
          List.iter (fun fd -> try Client.close fd with _ -> ()) !opened;
          settle t)
        (fun () ->
          let ping ~what fd =
            Client.send_ping fd;
            match Client.recv fd with
            | Client.Resp Client.Pong -> ()
            | _ -> Alcotest.failf "%s: expected PONG" what
          in
          let c1 = connect () in
          let c2 = connect () in
          ping ~what:"held session 1" c1;
          ping ~what:"held session 2" c2;
          Alcotest.(check int) "both sessions live" 2
            (Server.active_connections t);
          let c3 = connect () in
          let code, msg = recv_error ~what:"over-bound connection" c3 in
          Alcotest.(check int) "refused with server-busy"
            (Protocol.code (Protocol.Server_busy { active = 0; limit = 0 }))
            code;
          Alcotest.(check bool) "refusal names the limit" true
            (String.length msg > 0);
          (match Client.recv c3 with
          | Client.Eof -> ()
          | Client.Resp _ -> Alcotest.fail "refused connection should close");
          close c3;
          (* The held sessions were never disturbed by the refusal. *)
          ping ~what:"held session 1 after refusal" c1;
          ping ~what:"held session 2 after refusal" c2;
          (* Freeing a slot readmits: close one, retry until accepted. *)
          close c1;
          (* The probe must tolerate losing the reap race: the freed
             slot is visible only after the listener joins the dead
             session, and a probe that arrives early is refused — or
             even closed before its PING lands (EPIPE).  Either way:
             not yet. *)
          eventually ~what:"slot frees and readmits" (fun () ->
              try
                let fd = with_timeout (Client.connect path) in
                Fun.protect
                  ~finally:(fun () -> Client.close fd)
                  (fun () ->
                    Client.send_ping fd;
                    match Client.recv fd with
                    | Client.Resp Client.Pong -> true
                    | _ -> false)
              with Unix.Unix_error _ | Failure _ -> false);
          close c2))

(* ------------------------------------------------------------------ *)
(* Server-side static dispatch                                         *)
(* ------------------------------------------------------------------ *)

(* A disjoint-gadget instance: two chordal components merged by
   offsetting the second component's vertex ids in the printed text —
   exactly the shape the static analyzer's presolve decomposes. *)
let disjoint_gadget () =
  let p1 =
    Qcheck_gen.problem_in ~cls:Qcheck_gen.Chordal ~n:8 ~density:0.3
      ~affinity_fraction:0.5 41
  in
  let p2 =
    Qcheck_gen.problem_in ~cls:Qcheck_gen.Chordal ~n:8 ~density:0.3
      ~affinity_fraction:0.5 42
  in
  let text1 = Io.print p1 and text2 = Io.print p2 in
  let ints_of line =
    String.split_on_char ' ' line
    |> List.filter (fun s -> s <> "")
    |> List.tl |> List.map int_of_string
  in
  let max_vertex text =
    List.fold_left
      (fun acc line ->
        if String.length line > 1 && (line.[0] = 'v' || line.[0] = 'e') then
          List.fold_left max acc (ints_of line)
        else acc)
      0
      (String.split_on_char '\n' text)
  in
  let offset = max_vertex text1 + 1 in
  let shift ~keep_last line =
    let ints = ints_of line in
    let n = List.length ints in
    let shifted =
      List.mapi
        (fun i x -> if keep_last && i = n - 1 && n > 2 then x else x + offset)
        ints
    in
    Printf.sprintf "%c %s" line.[0]
      (String.concat " " (List.map string_of_int shifted))
  in
  let body1 =
    String.split_on_char '\n' text1
    |> List.filter (fun line ->
           String.length line > 0 && line.[0] <> '#' && line.[0] <> 'k')
    |> String.concat "\n"
  in
  let body2 =
    String.split_on_char '\n' text2
    |> List.filter_map (fun line ->
           if String.length line = 0 || line.[0] = '#' then None
           else
             match line.[0] with
             | 'k' -> None
             | 'v' | 'e' -> Some (shift ~keep_last:false line)
             | 'a' -> Some (shift ~keep_last:true line)
             | _ -> None)
    |> String.concat "\n"
  in
  let merged =
    Printf.sprintf "k %d\n%s\n%s\n"
      (max p1.Rc_core.Problem.k p2.Rc_core.Problem.k)
      body1 body2
  in
  match Io.parse merged with
  | Ok p -> p
  | Error m -> Alcotest.failf "disjoint gadget did not parse: %s" m

let strategy_of token =
  match Strategies.of_string token with
  | Ok s -> s
  | Error m -> Alcotest.failf "strategy %S: %s" token m

(* dispatch = Static_profile end to end: the first solve profiles the
   gadget and fills the server's profile cache; a second submission —
   different strategy, different connection — hits the cached profile
   (the Sanitize delta is the witness) and routes the exact solve on
   cached analysis.  Every served answer is byte-identical to one_shot
   under the same dispatch mode — a cached profile never changes
   bytes, because routing is a pure function of the profile. *)
let test_static_dispatch_served () =
  let p = disjoint_gadget () in
  let bin = Io.to_binary p in
  let dispatch = Rc_analysis.Dispatch.Static_profile in
  let config = { Server.default_config with dispatch } in
  let ph0 = Sanitize.serve_profile_hits ()
  and pm0 = Sanitize.serve_profile_misses () in
  with_serving ~config (fun t path ->
      let briggs = [ strategy_of "briggs" ] and exact = [ strategy_of "exact" ] in
      let briggs_static = Server.one_shot ~dispatch ~strategies:briggs p
      and exact_static = Server.one_shot ~dispatch ~strategies:exact p in
      (* Routing is deterministic in the profile: the reference is
         reproducible before any serving happens. *)
      Alcotest.(check string) "static one_shot is deterministic" briggs_static
        (Server.one_shot ~dispatch ~strategies:briggs p);
      (* Connection 1: briggs — profiles the gadget, fills the cache. *)
      let fd = with_timeout (Client.connect path) in
      Client.send_solve fd ~strategy:"briggs" ~encoding:`Binary bin;
      Client.send_flush fd;
      let hit, _, text = recv_answer ~what:"briggs via static server" fd in
      Alcotest.(check bool) "briggs is a cold miss" false hit;
      Alcotest.(check string) "briggs bytes = one_shot static" briggs_static
        text;
      Client.close fd;
      eventually ~what:"profile miss lands" (fun () ->
          Sanitize.serve_profile_misses () - pm0 >= 1);
      Alcotest.(check bool) "profile cached server-side" true
        (Server.profiles_cached t >= 1);
      (* Connection 2: exact on the same instance — a different answer
         key, but the same canonical hash: the solve must ride the
         cached profile. *)
      let fd = with_timeout (Client.connect path) in
      Client.send_solve fd ~strategy:"exact" ~encoding:`Binary bin;
      Client.send_flush fd;
      let hit, _, text = recv_answer ~what:"exact via static server" fd in
      Alcotest.(check bool) "exact is a genuine answer-cache miss" false hit;
      Alcotest.(check string) "exact bytes = one_shot static" exact_static text;
      Client.close fd;
      settle t;
      eventually ~what:"profile hit lands" (fun () ->
          Sanitize.serve_profile_hits () - ph0 >= 1);
      Alcotest.(check bool) "second submission hit the profile cache" true
        (Sanitize.serve_profile_hits () - ph0 >= 1);
      (* STATS carries the dispatch observability: profile traffic and
         the connection gauges. *)
      let fd = with_timeout (Client.connect path) in
      Client.send_stats fd;
      (match Client.recv fd with
      | Client.Resp (Client.Stats s) ->
          let has_line prefix =
            List.exists
              (String.starts_with ~prefix)
              (String.split_on_char '\n' s)
          in
          List.iter
            (fun l ->
              Alcotest.(check bool) ("stats lists " ^ l) true (has_line l))
            [
              "profile_hits ";
              "profile_misses ";
              "active_connections ";
              "peak_connections ";
              "max_conns ";
            ]
      | _ -> Alcotest.fail "expected STATS");
      Client.close fd)

let () =
  Alcotest.run "server-concurrent"
    [
      ( "differential",
        [
          Alcotest.test_case "4 clients, overlapping streams, Unix" `Slow
            test_concurrent_unix;
          Alcotest.test_case "4 clients, overlapping streams, TCP" `Slow
            test_concurrent_tcp;
          Alcotest.test_case "single-client eviction accounting is exact"
            `Quick test_eviction_accounting;
        ] );
      ( "faults",
        [
          Alcotest.test_case "hostile clients cost only their connection"
            `Quick test_fault_isolation;
          Alcotest.test_case "shutdown drains a stalled session" `Quick
            test_shutdown_drains_stalled;
          Alcotest.test_case "max_conns refusal is typed and non-fatal" `Quick
            test_max_conns_refusal;
        ] );
      ( "dispatch",
        [
          Alcotest.test_case "static dispatch rides the profile cache" `Quick
            test_static_dispatch_served;
        ] );
    ]
