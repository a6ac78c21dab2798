(* Server suite: the protocol/differential lockdown for coalescing as
   a service (PR 7).

   - differential: 100+ seeded instances (every Challenge preset plus
     the qcheck_gen random families) served over a live Unix socket at
     1 and 4 pool domains; every ANSWER must be byte-identical to
     Server.one_shot (which the CLI `solve` prints verbatim), the
     second submission of each instance must be a cache hit with
     identical bytes, and the text and binary encodings must land on
     the same cache key;
   - protocol fuzz: hundreds of mutated frames (truncation, bad magic,
     bad flags, unknown types, oversized lengths, garbage instances,
     unknown strategies, interleaved garbage, mid-stream disconnects)
     against a live server — each corruption class must map to its
     typed Protocol error code, the server must stay alive, and no
     connection may leak.  The fuzz runs over Unix and TCP transports,
     and in both cases an honest connection races the fuzzed ones for
     the whole run: its answers must stay byte-identical throughout
     (zero cross-connection interference);
   - binary format: of_binary (to_binary p) = p exactly across the
     random families and at 10^5 vertices, text->binary->text
     agreement, a file written and read back whole, and typed errors
     (never an exception) on malformed bytes;
   - text format: parse (print p) = p exactly (the strengthened
     Instance_io contract), plus a hand-written unnormalized file;
   - drain: SHUTDOWN answers every pending request before BYE (over a
     socketpair, which is also the serve_stdio machinery);
   - observability: the Sanitize serve-path counters (frames, cache
     traffic, certification verdicts) advance as served. *)

module Io = Rc_challenge.Instance_io
module Server = Rc_engine.Server
module Client = Rc_engine.Server.Client
module Wire = Rc_engine.Server.Wire
module Protocol = Rc_check.Protocol
module Sanitize = Rc_check.Sanitize
module Strategies = Rc_core.Strategies
module Problem = Rc_core.Problem
module G = Rc_graph.Graph

(* ------------------------------------------------------------------ *)
(* Helpers                                                             *)
(* ------------------------------------------------------------------ *)

let problem_equal (a : Problem.t) (b : Problem.t) =
  a.k = b.k && G.equal a.graph b.graph
  && List.length a.affinities = List.length b.affinities
  && List.for_all2
       (fun (x : Problem.affinity) (y : Problem.affinity) ->
         x.u = y.u && x.v = y.v && x.weight = y.weight)
       a.affinities b.affinities

(* Unix-socket paths are capped near 107 bytes, so keep them short. *)
let sock_counter = ref 0

let fresh_sock () =
  incr sock_counter;
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rcs%d.%d.sock" (Unix.getpid ()) !sock_counter)

(* A live server on its own domain; the accept loop exits on SHUTDOWN,
   which the finalizer sends if the test body did not. *)
let with_serving ?config f =
  let path = fresh_sock () in
  Server.with_server ?config (fun t ->
      let d = Domain.spawn (fun () -> Server.serve_unix t ~path) in
      Fun.protect
        ~finally:(fun () ->
          (try
             let fd = Client.connect ~attempts:5 path in
             Client.send_shutdown fd;
             ignore (Client.recv fd);
             Client.close fd
           with _ -> ());
          Domain.join d)
        (fun () -> f t path))

(* A live TCP server on its own domain, ephemeral port (the [ready]
   callback publishes it); same SHUTDOWN finalizer as [with_serving]. *)
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
          (try
             let fd =
               Client.connect_tcp ~attempts:5 "127.0.0.1" (Atomic.get port)
             in
             Client.send_shutdown fd;
             ignore (Client.recv fd);
             Client.close fd
           with _ -> ());
          Domain.join d)
        (fun () -> f t (Atomic.get port)))

let connect_with_timeout path =
  let fd = Client.connect path in
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 20.;
  fd

let connect_tcp_with_timeout port =
  let fd = Client.connect_tcp "127.0.0.1" port in
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

(* ------------------------------------------------------------------ *)
(* Differential: served answers vs the one-shot path                   *)
(* ------------------------------------------------------------------ *)

(* Every Challenge preset (4 seeds each) plus the qcheck_gen random
   family: 100 instances.  Small enough that all heuristics stay
   sub-millisecond, varied enough to cover chordal, gnp and interval
   interference and every preset program shape. *)
let corpus =
  lazy
    (let presets =
       List.concat_map
         (fun (pname, config) ->
           List.init 4 (fun i ->
               let inst =
                 Rc_challenge.Challenge.generate ~seed:(100 + i) ~config
                   ~k:(6 + i) ()
               in
               ( Printf.sprintf "%s/%d" pname i,
                 inst.Rc_challenge.Challenge.problem )))
         Rc_challenge.Challenge.presets
     in
     let random =
       List.init 80 (fun i ->
           ( Printf.sprintf "qcheck/%d" i,
             Qcheck_gen.problem
               ~n:(16 + (i mod 17))
               ~n_affinities:(6 + (i mod 7))
               (i + 1) ))
     in
     presets @ random)

let run_differential ~domains () =
  let corpus = Lazy.force corpus in
  Alcotest.(check bool) "corpus size" true (List.length corpus >= 100);
  let expected =
    List.map
      (fun (name, p) ->
        (name, Server.one_shot ~strategies:Strategies.all_heuristics p))
      corpus
  in
  let config = { Server.default_config with domains } in
  with_serving ~config (fun t path ->
      let fd = connect_with_timeout path in
      Fun.protect
        ~finally:(fun () -> Client.close fd)
        (fun () ->
          (* Round 0 ships binary, round 1 ships text: identical answer
             bytes AND a round-1 cache hit prove both encodings land on
             the same canonical cache key. *)
          let submit round =
            List.iter
              (fun (_, p) ->
                if round = 0 then
                  Client.send_solve fd ~encoding:`Binary (Io.to_binary p)
                else Client.send_solve fd ~encoding:`Text (Io.print p))
              corpus;
            Client.send_flush fd;
            List.map
              (fun (name, exp) ->
                let hit, certified, text =
                  recv_answer ~what:(Printf.sprintf "%s round %d" name round)
                    fd
                in
                Alcotest.(check string)
                  (Printf.sprintf "%s: bytes = one_shot (round %d)" name round)
                  exp text;
                Alcotest.(check bool)
                  (Printf.sprintf "%s: certified" name)
                  true certified;
                hit)
              expected
          in
          let round0 = submit 0 in
          Alcotest.(check bool)
            "first submission: all cache misses" true
            (List.for_all not round0);
          let round1 = submit 1 in
          Alcotest.(check bool)
            "second submission: all cache hits" true
            (List.for_all Fun.id round1);
          Alcotest.(check int)
            "requests accounted" (2 * List.length corpus)
            (Server.requests_served t);
          Alcotest.(check int)
            "one live connection" 1
            (Server.active_connections t)))

let test_differential_1_domain () = run_differential ~domains:1 ()
let test_differential_4_domains () = run_differential ~domains:4 ()

(* ------------------------------------------------------------------ *)
(* Protocol fuzz                                                       *)
(* ------------------------------------------------------------------ *)

(* An honest connection living for the whole fuzz run: it keeps
   submitting the same instance and checks every answer against the
   one-shot bytes.  Any divergence — a poisoned cache entry, a reply
   leaking across connections, an unexpected error — is recorded and
   failed after the join.  This is the zero-cross-connection-
   interference witness racing the fuzzed connections. *)
let spawn_honest_load ~connect ~stop =
  let failure = Atomic.make None in
  let record m = if Atomic.get failure = None then Atomic.set failure (Some m) in
  let d =
    Domain.spawn (fun () ->
        try
          let p = Qcheck_gen.problem ~n:13 ~n_affinities:5 77 in
          let expected =
            Server.one_shot ~strategies:Strategies.all_heuristics p
          in
          let bin = Io.to_binary p in
          let fd = connect () in
          Fun.protect
            ~finally:(fun () -> Client.close fd)
            (fun () ->
              while not (Atomic.get stop) do
                Client.send_solve fd ~encoding:`Binary bin;
                Client.send_flush fd;
                match Client.recv fd with
                | Client.Resp (Client.Answer { text; _ }) ->
                    if text <> expected then
                      record "honest answer diverged under fuzz load"
                | Client.Resp (Client.Error { code; message }) ->
                    record
                      (Printf.sprintf "honest connection got error %d: %s"
                         code message)
                | Client.Resp _ ->
                    record "honest connection: unexpected response type"
                | Client.Eof -> record "honest connection closed under fuzz"
              done)
        with e -> record (Printexc.to_string e))
  in
  (d, failure)

(* 25 seeds x 8 corruption classes = 200 mutated frames, each against
   a live server that is concurrently serving an honest connection.
   Frame-layer corruption must be answered with its typed error code
   and a closed connection; request-layer corruption must leave the
   connection serving (proved by an in-band PING); the racing honest
   connection must never see a wrong byte; and after all of it the
   server must still answer a fresh connection with zero sessions
   leaked.  Runs over both transports ([connect] abstracts them). *)
let run_protocol_fuzz ~name t connect =
  let base_problem = Qcheck_gen.problem ~n:12 ~n_affinities:4 7 in
  let valid_frame =
    Wire.encode_frame ~typ:Wire.req_solve
      (Wire.solve_payload ~encoding:`Binary (Io.to_binary base_problem))
  in
  let stop = Atomic.make false in
  let honest, honest_failure = spawn_honest_load ~connect ~stop in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Domain.join honest)
    (fun () ->
      let classes = 8 in
      Qcheck_gen.run_seeds ~name ~count:200
        (fun seed ->
          let rng = Random.State.make [| seed; 0xf022 |] in
          let fd = connect () in
          Fun.protect
            ~finally:(fun () -> Client.close fd)
            (fun () ->
              let half_close () = Unix.shutdown fd Unix.SHUTDOWN_SEND in
              let expect_code what code =
                let got, _ = recv_error ~what fd in
                Alcotest.(check int) (what ^ ": error code") code got
              in
              let expect_eof what =
                match Client.recv fd with
                | Client.Eof -> ()
                | Client.Resp _ ->
                    Alcotest.failf "%s: expected the connection closed" what
              in
              match seed mod classes with
              | 0 ->
                  (* Truncated frame: a strict prefix, then half-close
                     (read the typed error) or hard close (mid-stream
                     disconnect: no response readable, server must just
                     survive — the final liveness check proves it). *)
                  let cut =
                    1 + Random.State.int rng (String.length valid_frame - 1)
                  in
                  send_raw fd (String.sub valid_frame 0 cut);
                  if seed land 1 = 0 then begin
                    half_close ();
                    expect_code "truncated"
                      (Protocol.code
                         (Protocol.Truncated_frame
                            { context = ""; wanted = 0; got = 0 }));
                    expect_eof "truncated"
                  end
              | 1 ->
                  (* Header-only sends below: the server rejects at the
                     header and closes, and a close with unread bytes
                     queued surfaces as ECONNRESET (not EOF) on the
                     client side of an AF_UNIX stream — so leave it
                     nothing unread. *)
                  let b = Bytes.sub (Bytes.of_string valid_frame) 0 8 in
                  Bytes.set b (Random.State.int rng 2) 'X';
                  send_raw fd (Bytes.to_string b);
                  expect_code "bad magic"
                    (Protocol.code (Protocol.Bad_magic { byte0 = 0; byte1 = 0 }));
                  expect_eof "bad magic"
              | 2 ->
                  let b = Bytes.sub (Bytes.of_string valid_frame) 0 8 in
                  Bytes.set b 3 (Char.chr (1 + Random.State.int rng 255));
                  send_raw fd (Bytes.to_string b);
                  expect_code "bad flags" (Protocol.code (Protocol.Bad_flags 1));
                  expect_eof "bad flags"
              | 3 ->
                  send_raw fd
                    (Wire.encode_frame ~typ:(0x40 + Random.State.int rng 0x40)
                       "whatever");
                  expect_code "unknown type"
                    (Protocol.code (Protocol.Unknown_frame_type 0));
                  expect_eof "unknown type"
              | 4 ->
                  (* A length field far past max_payload (including the
                     0xFFFFFFFF wrap case on odd seeds). *)
                  let b = Bytes.sub (Bytes.of_string valid_frame) 0 8 in
                  Bytes.set_int32_le b 4
                    (if seed land 1 = 0 then Int32.max_int else -1l);
                  send_raw fd (Bytes.to_string b);
                  expect_code "oversized"
                    (Protocol.code
                       (Protocol.Oversized_frame { length = 0; limit = 0 }));
                  expect_eof "oversized"
              | 5 ->
                  (* Garbage instance bytes: a typed request-layer error,
                     after which the same connection must still serve. *)
                  let garbage =
                    String.init
                      (1 + Random.State.int rng 64)
                      (fun _ -> Char.chr (Random.State.int rng 256))
                  in
                  Client.send_solve fd ~encoding:`Binary garbage;
                  Client.send_flush fd;
                  expect_code "garbage instance"
                    (Protocol.code (Protocol.Bad_instance ""));
                  Client.send_ping fd;
                  (match Client.recv fd with
                  | Client.Resp Client.Pong -> ()
                  | _ ->
                      Alcotest.fail
                        "connection dead after a request-layer error")
              | 6 ->
                  (* An unknown name, an unknown exact backend and the
                     static router (a routing mode, not a backend) are
                     all refused on the same live connection. *)
                  List.iter
                    (fun strategy ->
                      Client.send_solve fd ~strategy ~encoding:`Binary
                        (Io.to_binary base_problem);
                      Client.send_flush fd;
                      expect_code ("unknown strategy " ^ strategy)
                        (Protocol.code (Protocol.Unknown_strategy ""));
                      Client.send_ping fd;
                      match Client.recv fd with
                      | Client.Resp Client.Pong -> ()
                      | _ ->
                          Alcotest.failf "connection dead after strategy %S"
                            strategy)
                    [ "no-such-strategy"; "exact:foo"; "exact:static" ]
              | _ ->
                  (* A valid SOLVE followed by interleaved garbage: the
                     answer must stream before the stream poisons. *)
                  send_raw fd valid_frame;
                  (* Exactly one bad header's worth of garbage, so the
                     server consumes it all before closing (see the
                     ECONNRESET note above). *)
                  let garbage =
                    String.init 8 (fun i ->
                        if i = 0 then 'X'
                        else Char.chr (Random.State.int rng 256))
                  in
                  send_raw fd garbage;
                  half_close ();
                  let _, _, _ = recv_answer ~what:"pre-garbage answer" fd in
                  let code, _ = recv_error ~what:"interleaved garbage" fd in
                  Alcotest.(check bool)
                    "garbage maps to a frame-layer code" true
                    (code >= 1 && code <= 5);
                  expect_eof "interleaved garbage")));
  (match Atomic.get honest_failure with
  | None -> ()
  | Some m -> Alcotest.failf "honest connection under fuzz: %s" m);
  (* The server survived all of it: a fresh connection answers, and
     nothing leaked.  (Sessions are domains now, so give each fuzzed
     connection's session a moment to observe its EOF and finish; the
     settle loop is the leak detector.) *)
  let fd = connect () in
  Client.send_ping fd;
  (match Client.recv fd with
  | Client.Resp Client.Pong -> ()
  | _ -> Alcotest.fail "server dead after fuzzing");
  Client.close fd;
  let deadline = Unix.gettimeofday () +. 5. in
  let rec settle () =
    if Server.active_connections t = 0 then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "leaked connections: %d" (Server.active_connections t)
    else begin
      Unix.sleepf 0.01;
      settle ()
    end
  in
  settle ()

let test_protocol_fuzz () =
  let config =
    { Server.default_config with cache_capacity = 8; max_conns = 64 }
  in
  with_serving ~config (fun t path ->
      run_protocol_fuzz ~name:"server.protocol-fuzz" t (fun () ->
          connect_with_timeout path))

let test_protocol_fuzz_tcp () =
  let config =
    { Server.default_config with cache_capacity = 8; max_conns = 64 }
  in
  with_serving_tcp ~config (fun t port ->
      run_protocol_fuzz ~name:"server.protocol-fuzz-tcp" t (fun () ->
          connect_tcp_with_timeout port))

(* ------------------------------------------------------------------ *)
(* Binary format properties                                            *)
(* ------------------------------------------------------------------ *)

let test_binary_roundtrip () =
  Qcheck_gen.run_seeds ~name:"server.binary-roundtrip" ~count:40 (fun seed ->
      List.iter
        (fun cls ->
          let p =
            Qcheck_gen.problem_in ~cls
              ~n:(10 + (seed mod 40))
              ~density:0.15 ~affinity_fraction:0.4 seed
          in
          let b = Io.to_binary p in
          (match Io.of_binary b with
          | Ok q ->
              Alcotest.(check bool)
                "of_binary (to_binary p) = p" true (problem_equal p q);
              (* Canonical: equal problems, byte-equal encodings. *)
              Alcotest.(check string) "re-encode is byte-identical" b
                (Io.to_binary q)
          | Error e -> Alcotest.failf "of_binary: %s" (Io.bin_error_to_string e));
          match Io.parse (Io.print p) with
          | Error m -> Alcotest.failf "parse (print p): %s" m
          | Ok q ->
              Alcotest.(check bool)
                "parse (print p) = p exactly" true (problem_equal p q);
              Alcotest.(check string)
                "text and binary routes agree" b (Io.to_binary q);
              Alcotest.(check string)
                "canonical hash agrees across routes" (Io.canonical_hash p)
                (Io.canonical_hash q))
        Qcheck_gen.[ Chordal; Gnp; Interval ])

let test_binary_large () =
  let n = 100_000 in
  let { Rc_challenge.Challenge.problem = p; _ } =
    Rc_challenge.Challenge.synthetic ~seed:2026 ~n ~maxlive:10
      ~affinity_fraction:0.2 ()
  in
  let b = Io.to_binary p in
  (match Io.of_binary b with
  | Ok q ->
      Alcotest.(check bool) "10^5 round trip exact" true (problem_equal p q)
  | Error e -> Alcotest.failf "of_binary: %s" (Io.bin_error_to_string e));
  let v =
    match Io.view_of_binary b with
    | Ok v -> v
    | Error e -> Alcotest.failf "view_of_binary: %s" (Io.bin_error_to_string e)
  in
  let nv, ne, na = Io.view_counts v in
  Alcotest.(check int) "view vertices" (G.num_vertices p.graph) nv;
  Alcotest.(check int) "view edges" (G.num_edges p.graph) ne;
  Alcotest.(check int) "view affinities" (List.length p.affinities) na;
  Alcotest.(check int) "view k" p.k (Io.view_k v);
  (* The zero-copy load: edge section streamed straight into a flat
     kernel, no persistent graph in between. *)
  let f, labels = Io.view_flat v in
  Alcotest.(check int) "flat edges" ne (Rc_graph.Flat.num_edges f);
  Alcotest.(check int) "label table" nv (Array.length labels);
  let sorted = Array.copy labels in
  Array.sort compare sorted;
  Alcotest.(check bool) "labels strictly increasing" true (labels = sorted);
  (* Files: write, then read back whole and decode. *)
  let path = Filename.temp_file "rcbi" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Io.write_binary_file path p;
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      match Io.of_binary bytes with
      | Ok q ->
          Alcotest.(check bool) "file read back equal" true (problem_equal p q)
      | Error e -> Alcotest.failf "file: %s" (Io.bin_error_to_string e))

(* The keying entry point reads an encoding in place, at an offset
   inside a longer string (the server's read buffer), and must reach
   the verdict [of_binary] reaches on the bare bytes: the same error,
   or on success the canonical hash of the decoded problem.  [pre]
   bytes of 0xff go in front (an unaligned offset when not a multiple
   of 4) and a stray magic behind, so reading past either end of the
   range would show. *)
let keyed_alike ~what ?(pre = 5) s =
  let framed = String.make pre '\xff' ^ s ^ "RCBI" in
  match
    (Io.of_binary s, Io.key_binary framed ~pos:pre ~len:(String.length s))
  with
  | Ok p, Ok key ->
      Alcotest.(check string)
        (what ^ ": key = canonical_hash") (Io.canonical_hash p) key
  | Error a, Error b ->
      if a <> b then
        Alcotest.failf "%s: of_binary says %s, key_binary says %s" what
          (Io.bin_error_to_string a) (Io.bin_error_to_string b)
  | Ok _, Error e ->
      Alcotest.failf "%s: decodes, but key_binary refuses: %s" what
        (Io.bin_error_to_string e)
  | Error e, Ok _ ->
      Alcotest.failf "%s: of_binary refuses (%s), key_binary accepts" what
        (Io.bin_error_to_string e)

let test_binary_malformed () =
  let p = Qcheck_gen.problem ~n:30 ~n_affinities:10 5 in
  let b = Io.to_binary p in
  let expect what s pred =
    keyed_alike ~what s;
    match Io.of_binary s with
    | Ok _ -> Alcotest.failf "%s: decoded successfully" what
    | Error e ->
        if not (pred e) then
          Alcotest.failf "%s: wrong error %s" what (Io.bin_error_to_string e)
  in
  let patched ~word v =
    let c = Bytes.of_string b in
    Bytes.set_int32_le c (4 * word) (Int32.of_int v);
    Bytes.to_string c
  in
  keyed_alike ~what:"valid" b;
  expect "bad magic"
    ("XCBI" ^ String.sub b 4 (String.length b - 4))
    (function Io.Bin_bad_magic -> true | _ -> false);
  expect "future version" (patched ~word:1 99)
    (function Io.Bin_unsupported_version 99 -> true | _ -> false);
  expect "non-zero reserved flags" (patched ~word:6 1)
    (function Io.Bin_bad_header _ -> true | _ -> false);
  expect "non-positive k" (patched ~word:2 0)
    (function Io.Bin_bad_header _ -> true | _ -> false);
  expect "count lies about size"
    (patched ~word:4 (G.num_edges p.graph + 1))
    (function Io.Bin_truncated _ -> true | _ -> false);
  expect "truncated mid-word"
    (String.sub b 0 (String.length b - 2))
    (function Io.Bin_truncated _ -> true | _ -> false);
  expect "truncated at a word boundary"
    (String.sub b 0 (String.length b - 4))
    (function Io.Bin_truncated _ -> true | _ -> false);
  (* Arbitrary corruption must yield Ok or a typed error — never an
     exception.  (A single flipped byte can still decode: e.g. a weight
     byte.  The guarantee under test is totality, not rejection.)  The
     keyed read of the same bytes at an offset must agree. *)
  Qcheck_gen.run_seeds ~name:"server.binary-mutations" ~count:100 (fun seed ->
      let rng = Random.State.make [| seed; 0xb1a5 |] in
      let c = Bytes.of_string b in
      for _ = 0 to Random.State.int rng 4 do
        Bytes.set c
          (Random.State.int rng (Bytes.length c))
          (Char.chr (Random.State.int rng 256))
      done;
      let s =
        if Random.State.bool rng then
          Bytes.sub_string c 0 (Random.State.int rng (Bytes.length c))
        else Bytes.to_string c
      in
      keyed_alike
        ~what:(Printf.sprintf "mutation %d" seed)
        ~pre:(1 + (seed mod 8))
        s)

(* Keying a valid payload in place gives the canonical hash of the
   problem it decodes to, so binary requests share cache keys with the
   text requests (parsed, then hashed) for the same instance. *)
let test_key_binary () =
  Qcheck_gen.run_seeds ~name:"server.key-binary" ~count:40 (fun seed ->
      List.iter
        (fun cls ->
          let p =
            Qcheck_gen.problem_in ~cls
              ~n:(10 + (seed mod 40))
              ~density:0.15 ~affinity_fraction:0.4 seed
          in
          keyed_alike
            ~what:(Printf.sprintf "%s seed %d" (Qcheck_gen.cls_name cls) seed)
            ~pre:(seed mod 9) (Io.to_binary p))
        Qcheck_gen.[ Chordal; Gnp; Interval ]);
  Qcheck_gen.run_seeds ~name:"server.key-binary-synthetic" ~count:4
    (fun seed ->
      let n = if seed <= 2 then 1_000 else 10_000 in
      let { Rc_challenge.Challenge.problem = p; _ } =
        Rc_challenge.Challenge.synthetic ~seed ~n ~maxlive:12 ()
      in
      keyed_alike ~what:(Printf.sprintf "synthetic n=%d seed %d" n seed)
        (Io.to_binary p))

(* ------------------------------------------------------------------ *)
(* Text format exactness                                               *)
(* ------------------------------------------------------------------ *)

(* The strengthened Instance_io.print contract: parse (print p) is p
   exactly, and a hand-written file with unsorted directives, comments,
   duplicate affinities and negative vertex ids normalizes once and is
   then a fixed point of print/parse. *)
let test_text_exact_regression () =
  let src =
    "# hand-written, deliberately unnormalized\n\
     k 3\n\
     v 9 -2 5\n\
     e 9 -2\n\
     e -2 5\t# tabs and trailing comments\n\
     a 9 5 4\n\
     a 5 9 2\n\
     a -2 9\n\
     v 11\n"
  in
  let p =
    match Io.parse src with
    | Ok p -> p
    | Error m -> Alcotest.failf "parse: %s" m
  in
  (* (9, 5) duplicated with swapped endpoints: weights merge. *)
  Alcotest.(check int) "affinities merged" 2 (List.length p.affinities);
  Alcotest.(check bool)
    "merged weight" true
    (List.exists
       (fun (a : Problem.affinity) -> a.u = 5 && a.v = 9 && a.weight = 6)
       p.affinities);
  Alcotest.(check int) "isolated vertex kept" 4 (G.num_vertices p.graph);
  let q =
    match Io.parse (Io.print p) with
    | Ok q -> q
    | Error m -> Alcotest.failf "reparse: %s" m
  in
  Alcotest.(check bool) "parse (print p) = p" true (problem_equal p q);
  Alcotest.(check string) "print is a fixed point" (Io.print p) (Io.print q)

(* ------------------------------------------------------------------ *)
(* Drain semantics (also the serve_stdio machinery)                    *)
(* ------------------------------------------------------------------ *)

(* serve_connection over a socketpair is exactly what serve_stdio runs
   on stdin/stdout; SHUTDOWN with three unflushed SOLVEs pending must
   answer all three (duplicates as cache hits) before BYE. *)
let test_shutdown_drain () =
  Server.with_server (fun t ->
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let d =
        Domain.spawn (fun () -> Server.serve_connection t ~in_fd:a ~out_fd:a)
      in
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 20.;
      let p = Qcheck_gen.problem ~n:14 ~n_affinities:5 3 in
      let expected = Server.one_shot ~strategies:Strategies.all_heuristics p in
      for _ = 1 to 3 do
        Client.send_solve b ~encoding:`Binary (Io.to_binary p)
      done;
      Client.send_shutdown b;
      for i = 1 to 3 do
        let hit, _, text =
          recv_answer ~what:(Printf.sprintf "drained answer %d" i) b
        in
        Alcotest.(check string) "drained bytes" expected text;
        if i > 1 then
          Alcotest.(check bool) "duplicate is a cache hit" true hit
      done;
      (match Client.recv b with
      | Client.Resp Client.Bye -> ()
      | _ -> Alcotest.fail "expected BYE after the drain");
      (match Domain.join d with
      | `Shutdown -> ()
      | `Closed -> Alcotest.fail "SHUTDOWN not honored");
      Unix.close a;
      Unix.close b;
      (* A connection arriving after the drain is refused with a typed
         error, not served or hung. *)
      let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      let d =
        Domain.spawn (fun () -> Server.serve_connection t ~in_fd:a ~out_fd:a)
      in
      Unix.setsockopt_float b Unix.SO_RCVTIMEO 20.;
      let code, _ = recv_error ~what:"post-drain connection" b in
      Alcotest.(check int) "shutting-down code"
        (Protocol.code Protocol.Shutting_down)
        code;
      ignore (Domain.join d);
      Unix.close a;
      Unix.close b)

(* ------------------------------------------------------------------ *)
(* Serve-path observability                                            *)
(* ------------------------------------------------------------------ *)

let test_sanitize_counters () =
  let d0 = Sanitize.frames_decoded ()
  and r0 = Sanitize.frames_rejected ()
  and h0 = Sanitize.serve_cache_hits ()
  and m0 = Sanitize.serve_cache_misses ()
  and ok0 = Sanitize.certified_ok () in
  with_serving (fun t path ->
      let fd = connect_with_timeout path in
      let p = Qcheck_gen.problem ~n:12 ~n_affinities:4 9 in
      Client.send_solve fd ~encoding:`Binary (Io.to_binary p);
      Client.send_solve fd ~encoding:`Binary (Io.to_binary p);
      Client.send_flush fd;
      let hit1, _, _ = recv_answer ~what:"counted solve 1" fd in
      let hit2, _, _ = recv_answer ~what:"counted solve 2" fd in
      Alcotest.(check bool) "first is a miss" false hit1;
      Alcotest.(check bool) "second is a hit" true hit2;
      Client.send_solve fd ~encoding:`Binary "not an instance";
      Client.send_flush fd;
      ignore (recv_error ~what:"counted rejection" fd);
      Client.send_stats fd;
      (match Client.recv fd with
      | Client.Resp (Client.Stats s) ->
          (* The STATS payload reports the same counters. *)
          Alcotest.(check bool)
            "stats mentions frames_decoded" true
            (String.length s > 0
            && String.sub s 0 14 = "frames_decoded");
          Alcotest.(check string) "stats payload = stats_text" s
            (Server.stats_text t)
      | _ -> Alcotest.fail "expected STATS");
      Client.close fd);
  Alcotest.(check bool)
    "frames_decoded advanced" true
    (Sanitize.frames_decoded () >= d0 + 5);
  Alcotest.(check bool)
    "frames_rejected advanced" true
    (Sanitize.frames_rejected () >= r0 + 1);
  Alcotest.(check bool)
    "cache hits advanced" true
    (Sanitize.serve_cache_hits () >= h0 + 1);
  Alcotest.(check bool)
    "cache misses advanced" true
    (Sanitize.serve_cache_misses () >= m0 + 1);
  Alcotest.(check bool)
    "certifications recorded" true
    (Sanitize.certified_ok () >= ok0 + 8)

(* The STATS frame's counters, by name. *)
let stats_counters fd =
  Client.send_stats fd;
  match Client.recv fd with
  | Client.Resp (Client.Stats s) ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' s)
  | _ -> Alcotest.fail "expected STATS"

(* A binary cache hit is answered from the frame bytes: the problem is
   built only for a miss.  Twenty distinct instances submitted twice:
   the first round decodes each once, the second decodes nothing. *)
let test_hit_builds_no_problem () =
  let bins =
    List.init 20 (fun i ->
        Io.to_binary (Qcheck_gen.problem ~n:(12 + i) ~n_affinities:5 (300 + i)))
  in
  Alcotest.(check int) "twenty distinct instances" 20
    (List.length (List.sort_uniq compare bins));
  with_serving (fun _ path ->
      let fd = connect_with_timeout path in
      Fun.protect
        ~finally:(fun () -> Client.close fd)
        (fun () ->
          let round () =
            let before = stats_counters fd in
            List.iter (Client.send_solve fd ~encoding:`Binary) bins;
            Client.send_flush fd;
            List.iteri
              (fun i _ -> ignore (recv_answer ~what:(Printf.sprintf "solve %d" i) fd))
              bins;
            let after = stats_counters fd in
            fun key ->
              match (List.assoc_opt key before, List.assoc_opt key after) with
              | Some x, Some y -> y - x
              | _ -> Alcotest.failf "STATS lacks %s" key
          in
          let d1 = round () in
          Alcotest.(check int) "round 1: 20 misses" 20 (d1 "cache_misses");
          Alcotest.(check int) "round 1: 20 decodes" 20 (d1 "instances_decoded");
          Alcotest.(check int) "round 1: no hits" 0 (d1 "cache_hits");
          let d2 = round () in
          Alcotest.(check int) "round 2: 20 hits" 20 (d2 "cache_hits");
          Alcotest.(check int) "round 2: no misses" 0 (d2 "cache_misses");
          Alcotest.(check int) "round 2: no decodes" 0 (d2 "instances_decoded")))

(* An [all] answer in the cache serves later single-strategy requests
   for the same instance: the reply is the stats line plus that
   strategy's line, flagged as a cache hit without a fresh solve. *)
let test_all_subsumes_single () =
  with_serving (fun t path ->
      let fd = connect_with_timeout path in
      let p = Qcheck_gen.problem ~n:14 ~n_affinities:5 21 in
      let bin = Io.to_binary p in
      Client.send_solve fd ~encoding:`Binary bin;
      Client.send_flush fd;
      let _, _, all_text = recv_answer ~what:"all strategies" fd in
      let all_lines = String.split_on_char '\n' all_text in
      let entries_after_all = Server.cache_entries t in
      List.iter
        (fun s ->
          let name = Rc_core.Strategies.name s in
          Client.send_solve fd ~strategy:name ~encoding:`Binary bin;
          Client.send_flush fd;
          let hit, _, text = recv_answer ~what:name fd in
          Alcotest.(check bool) (name ^ ": served from the all answer") true
            hit;
          match String.split_on_char '\n' text with
          | [ stats; line; "" ] ->
              Alcotest.(check bool) (name ^ ": stats line present") true
                (String.length stats > 0);
              Alcotest.(check bool) (name ^ ": line lifted from all") true
                (List.mem line all_lines)
          | _ -> Alcotest.failf "%s: unexpected reply shape" name)
        Rc_core.Strategies.all_heuristics;
      (* Subsumption synthesizes nothing: the cache still holds only
         the all entry. *)
      Alcotest.(check int) "no synthesized entries" entries_after_all
        (Server.cache_entries t);
      (* Exact is not part of the all set, so it solves fresh. *)
      Client.send_solve fd ~strategy:"exact" ~encoding:`Binary bin;
      Client.send_flush fd;
      let hit, _, _ = recv_answer ~what:"exact" fd in
      Alcotest.(check bool) "exact is a genuine miss" false hit;
      (* The profile cache filled from the fresh solves and shows in
         STATS. *)
      Alcotest.(check bool) "profile cached" true (Server.profiles_cached t >= 1);
      Client.send_stats fd;
      (match Client.recv fd with
      | Client.Resp (Client.Stats s) ->
          let has_line prefix =
            List.exists
              (String.starts_with ~prefix)
              (String.split_on_char '\n' s)
          in
          Alcotest.(check bool) "stats lists profiles_cached" true
            (has_line "profiles_cached ");
          Alcotest.(check bool) "stats carries a profile line" true
            (has_line "profile ")
      | _ -> Alcotest.fail "expected STATS");
      Client.close fd)

(* Capacity pressure evicts one least-recently-used entry per insert
   instead of resetting the cache: a recently touched entry survives
   an insert at capacity, the cold one dies. *)
let test_lru_eviction () =
  let e0 = Sanitize.serve_cache_evictions () in
  let config = { Server.default_config with cache_capacity = 2 } in
  with_serving ~config (fun t path ->
      let fd = connect_with_timeout path in
      let prob i = Io.to_binary (Qcheck_gen.problem ~n:10 ~n_affinities:3 (40 + i)) in
      let round ~what bin =
        Client.send_solve fd ~encoding:`Binary bin;
        Client.send_flush fd;
        let hit, _, _ = recv_answer ~what fd in
        hit
      in
      Alcotest.(check bool) "p0 cold" false (round ~what:"p0 first" (prob 0));
      Alcotest.(check bool) "p1 cold" false (round ~what:"p1 first" (prob 1));
      Alcotest.(check bool) "p0 cached" true (round ~what:"p0 touch" (prob 0));
      (* At capacity: inserting p2 must evict p1 (coldest), not reset. *)
      Alcotest.(check bool) "p2 cold" false (round ~what:"p2 insert" (prob 2));
      Alcotest.(check int) "cache stays bounded" 2 (Server.cache_entries t);
      Alcotest.(check bool) "p0 survived the eviction" true
        (round ~what:"p0 after p2" (prob 0));
      Alcotest.(check bool) "p1 was evicted" false
        (round ~what:"p1 after eviction" (prob 1));
      (* The explicit full clear is an API operation, not the FLUSH
         frame (which is a batch barrier and cleared nothing above). *)
      Server.flush_cache t;
      Alcotest.(check int) "flush_cache empties the cache" 0
        (Server.cache_entries t);
      Alcotest.(check int) "flush_cache empties the profiles" 0
        (Server.profiles_cached t);
      Alcotest.(check bool) "p0 cold again after flush_cache" false
        (round ~what:"p0 after flush_cache" (prob 0));
      Client.close fd);
  Alcotest.(check bool) "evictions counted by Sanitize" true
    (Sanitize.serve_cache_evictions () >= e0 + 2)

(* ------------------------------------------------------------------ *)
(* Wire-code stability                                                 *)
(* ------------------------------------------------------------------ *)

(* The codes are the wire contract (DESIGN.md): renumbering them is a
   protocol break, so each is pinned. *)
let test_protocol_codes () =
  let open Protocol in
  let cases =
    [
      (Bad_magic { byte0 = 0; byte1 = 0 }, 1, "bad-magic", true);
      (Bad_flags 1, 2, "bad-flags", true);
      (Unknown_frame_type 9, 3, "unknown-frame-type", true);
      (Oversized_frame { length = 9; limit = 1 }, 4, "oversized-frame", true);
      ( Truncated_frame { context = "x"; wanted = 8; got = 1 },
        5,
        "truncated-frame",
        true );
      (Bad_request "x", 6, "bad-request", false);
      (Bad_instance "x", 7, "bad-instance", false);
      (Unknown_strategy "x", 8, "unknown-strategy", false);
      (Certification_failed "x", 9, "certification-failed", false);
      (Shutting_down, 10, "shutting-down", false);
      (Server_busy { active = 4; limit = 4 }, 11, "server-busy", false);
    ]
  in
  List.iter
    (fun (e, c, n, closes) ->
      Alcotest.(check int) ("code " ^ n) c (code e);
      Alcotest.(check string) ("name " ^ n) n (code_name c);
      Alcotest.(check bool) ("closes " ^ n) closes (closes_connection e))
    cases;
  Alcotest.(check string) "out-of-taxonomy code" "unknown" (code_name 99);
  (* Frame constants are wire contract too. *)
  Alcotest.(check int) "SOLVE" 0x01 Wire.req_solve;
  Alcotest.(check int) "PING" 0x02 Wire.req_ping;
  Alcotest.(check int) "STATS" 0x03 Wire.req_stats;
  Alcotest.(check int) "FLUSH" 0x04 Wire.req_flush;
  Alcotest.(check int) "SHUTDOWN" 0x05 Wire.req_shutdown;
  Alcotest.(check int) "ANSWER" 0x81 Wire.resp_answer;
  Alcotest.(check int) "ERROR" 0x82 Wire.resp_error;
  Alcotest.(check int) "PONG" 0x83 Wire.resp_pong;
  Alcotest.(check int) "STATS'" 0x84 Wire.resp_stats;
  Alcotest.(check int) "BYE" 0x85 Wire.resp_bye;
  Alcotest.(check string) "magic" "RC" Wire.magic;
  Alcotest.(check int) "header" 8 Wire.header_bytes

let () =
  Alcotest.run "server"
    [
      ( "differential",
        [
          Alcotest.test_case "100 instances, 1 domain" `Slow
            test_differential_1_domain;
          Alcotest.test_case "100 instances, 4 domains" `Slow
            test_differential_4_domains;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "fuzz: 200 mutated frames vs honest load" `Slow
            test_protocol_fuzz;
          Alcotest.test_case "fuzz over TCP vs honest load" `Slow
            test_protocol_fuzz_tcp;
          Alcotest.test_case "wire codes pinned" `Quick test_protocol_codes;
        ] );
      ( "binary",
        [
          Alcotest.test_case "round trip, random families" `Quick
            test_binary_roundtrip;
          Alcotest.test_case "round trip at 10^5 + files" `Slow
            test_binary_large;
          Alcotest.test_case "malformed bytes: typed errors" `Quick
            test_binary_malformed;
          Alcotest.test_case "in-place key = canonical hash" `Quick
            test_key_binary;
        ] );
      ( "text",
        [
          Alcotest.test_case "parse/print exactness" `Quick
            test_text_exact_regression;
        ] );
      ( "serving",
        [
          Alcotest.test_case "shutdown drains pending answers" `Quick
            test_shutdown_drain;
          Alcotest.test_case "sanitize counters advance" `Quick
            test_sanitize_counters;
          Alcotest.test_case "a binary cache hit builds no problem" `Quick
            test_hit_builds_no_problem;
          Alcotest.test_case "all answer subsumes single strategies" `Quick
            test_all_subsumes_single;
          Alcotest.test_case "LRU eviction and explicit flush_cache" `Quick
            test_lru_eviction;
        ] );
    ]
