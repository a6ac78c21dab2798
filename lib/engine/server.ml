module Strategies = Rc_core.Strategies
module Problem = Rc_core.Problem
module Instance_io = Rc_challenge.Instance_io
module Protocol = Rc_check.Protocol
module Sanitize = Rc_check.Sanitize
module Certify = Rc_check.Certify
module Profile = Rc_analysis.Profile

(* ------------------------------------------------------------------ *)
(* Wire format                                                         *)
(* ------------------------------------------------------------------ *)

module Wire = struct
  let magic = "RC"
  let header_bytes = 8
  let req_solve = 0x01
  let req_ping = 0x02
  let req_stats = 0x03
  let req_flush = 0x04
  let req_shutdown = 0x05
  let resp_answer = 0x81
  let resp_error = 0x82
  let resp_pong = 0x83
  let resp_stats = 0x84
  let resp_bye = 0x85
  let max_payload_default = 64 * 1024 * 1024

  let encode_frame ~typ payload =
    let n = String.length payload in
    let b = Bytes.create (header_bytes + n) in
    Bytes.blit_string magic 0 b 0 2;
    Bytes.set b 2 (Char.chr (typ land 0xff));
    Bytes.set b 3 '\000';
    Bytes.set_int32_le b 4 (Int32.of_int n);
    Bytes.blit_string payload 0 b header_bytes n;
    Bytes.unsafe_to_string b

  let solve_payload ?(strategy = "") ~encoding instance =
    let slen = String.length strategy in
    if slen > 255 then invalid_arg "Server.Wire.solve_payload: strategy name too long";
    let b = Buffer.create (2 + slen + String.length instance) in
    Buffer.add_char b (match encoding with `Binary -> '\000' | `Text -> '\001');
    Buffer.add_char b (Char.chr slen);
    Buffer.add_string b strategy;
    Buffer.add_string b instance;
    Buffer.contents b
end

(* ------------------------------------------------------------------ *)
(* Byte-stream helpers                                                 *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s ofs len =
  if len > 0 then
    match Unix.write_substring fd s ofs len with
    | n -> write_all fd s (ofs + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd s ofs len

let write_frame fd ~typ payload =
  let s = Wire.encode_frame ~typ payload in
  write_all fd s 0 (String.length s)

(* Reads exactly [len] bytes unless the stream ends first; returns how
   many arrived. *)
let read_upto fd buf len =
  let got = ref 0 in
  let eof = ref false in
  while (not !eof) && !got < len do
    match Unix.read fd buf !got (len - !got) with
    | 0 -> eof := true
    | n -> got := !got + n
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  !got

type frame = Frame of int * int | Eof | Bad of Protocol.error

(* Reads one frame.  Its payload lands in bytes [0, len) of [!buf],
   which is replaced by a buffer of exactly [len] bytes when it is too
   small: a session passes its one read buffer (so it grows to the
   session's largest frame and is reused by every read), a one-off
   reader a fresh [ref Bytes.empty]. *)
let read_frame ~max_payload fd buf =
  match
    let hdr = Bytes.create Wire.header_bytes in
    match read_upto fd hdr Wire.header_bytes with
    | 0 -> Eof
    | n when n < Wire.header_bytes ->
        Bad
          (Protocol.Truncated_frame
             { context = "frame header"; wanted = Wire.header_bytes; got = n })
    | _ ->
        if Bytes.get hdr 0 <> 'R' || Bytes.get hdr 1 <> 'C' then
          Bad
            (Protocol.Bad_magic
               {
                 byte0 = Char.code (Bytes.get hdr 0);
                 byte1 = Char.code (Bytes.get hdr 1);
               })
        else if Bytes.get hdr 3 <> '\000' then
          Bad (Protocol.Bad_flags (Char.code (Bytes.get hdr 3)))
        else begin
          let typ = Char.code (Bytes.get hdr 2) in
          let len =
            match Int32.unsigned_to_int (Bytes.get_int32_le hdr 4) with
            | Some n -> n
            | None -> max_int (* 32-bit host; anything this big is oversized *)
          in
          if len > max_payload then
            Bad (Protocol.Oversized_frame { length = len; limit = max_payload })
          else begin
            if Bytes.length !buf < len then buf := Bytes.create len;
            let got = read_upto fd !buf len in
            if got < len then
              Bad
                (Protocol.Truncated_frame
                   { context = "frame payload"; wanted = len; got })
            else Frame (typ, len)
          end
        end
  with
  | r -> r
  | exception Unix.Unix_error (e, _, _) ->
      (* A reset mid-read is a disconnect, not a server problem. *)
      Bad
        (Protocol.Truncated_frame
           { context = "read (" ^ Unix.error_message e ^ ")"; wanted = 0; got = 0 })

let readable ?(timeout = 0.) fd =
  match Unix.select [ fd ] [] [] timeout with
  | [ _ ], _, _ -> true
  | _ -> false
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> false

(* ------------------------------------------------------------------ *)
(* The one-shot path                                                   *)
(* ------------------------------------------------------------------ *)

(* What each strategy's answer claims about itself on the certification
   pass.  IRC claims nothing here: it may spill, leaving a solution
   over a reduced instance the original problem cannot certify (the CLI
   check subcommand skips those the same way). *)
let claims_for (s : Strategies.t) =
  match s with
  | Strategies.Aggressive | Strategies.Irc _ -> []
  | Strategies.Conservative _ | Strategies.Optimistic
  | Strategies.Chordal_incremental | Strategies.Set_conservative _
  | Strategies.Exact_conservative | Strategies.Exact_backend _ ->
      [ Certify.Conservative ]

(* One solution per strategy.  Under [Static_profile], a profile in
   hand (the server's profile-cache hit) is the router's input, so the
   cached analysis is actually reused; routing is a pure function of
   the profile, so the answer is byte-identical to a fresh profile's. *)
let render ?profile dispatch config strategies p =
  let sols =
    List.map
      (fun s -> (s, Rc_analysis.Dispatch.run ?profile dispatch config s p))
      strategies
  in
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Problem.stats p);
  Buffer.add_char buf '\n';
  List.iter
    (fun (s, sol) ->
      Buffer.add_string buf
        (Format.asprintf "%a" Strategies.pp_report_canonical
           (Strategies.report_of_solution s p sol));
      Buffer.add_char buf '\n')
    sols;
  (Buffer.contents buf, sols)

let one_shot ?(dispatch = Rc_analysis.Dispatch.Direct)
    ?(config = Strategies.default_config) ~strategies p =
  fst (render dispatch config strategies p)

(* ------------------------------------------------------------------ *)
(* Size-bounded LRU                                                    *)
(* ------------------------------------------------------------------ *)

(* The answer and profile caches: a string-keyed table over an
   intrusive doubly-linked recency list.  [find] touches; [add] evicts
   the coldest entry when the capacity is reached (one eviction per
   insert — the cache never resets wholesale; an explicit
   [Server.flush_cache] is the only full clear).  Single-domain use
   only: every call site runs on the connection-serving domain, never
   inside a pool task. *)
module Lru = struct
  type 'a node = {
    key : string;
    mutable value : 'a;
    mutable prev : 'a node option;
    mutable next : 'a node option;
  }

  type 'a t = {
    capacity : int;
    table : (string, 'a node) Hashtbl.t;
    mutable head : 'a node option;  (* most recently used *)
    mutable tail : 'a node option;  (* eviction candidate *)
  }

  let create capacity =
    {
      capacity = max 1 capacity;
      table = Hashtbl.create 64;
      head = None;
      tail = None;
    }

  let length t = Hashtbl.length t.table

  let unlink t n =
    (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
    (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
    n.prev <- None;
    n.next <- None

  let push_front t n =
    n.next <- t.head;
    (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
    t.head <- Some n

  let find t key =
    match Hashtbl.find_opt t.table key with
    | None -> None
    | Some n ->
        unlink t n;
        push_front t n;
        Some n.value

  let add t key value =
    match Hashtbl.find_opt t.table key with
    | Some n ->
        n.value <- value;
        unlink t n;
        push_front t n
    | None ->
        if Hashtbl.length t.table >= t.capacity then
          (match t.tail with
          | Some cold ->
              unlink t cold;
              Hashtbl.remove t.table cold.key;
              Sanitize.note_cache_evicted ()
          | None -> ());
        let n = { key; value; prev = None; next = None } in
        Hashtbl.replace t.table n.key n;
        push_front t n

  let clear t =
    Hashtbl.reset t.table;
    t.head <- None;
    t.tail <- None

  (* Most-recent-first fold, stopping after [limit] entries. *)
  let fold_recent t ~limit f acc =
    let rec go acc count = function
      | Some n when count < limit -> go (f acc n.key n.value) (count + 1) n.next
      | _ -> acc
    in
    go acc 0 t.head
end

(* ------------------------------------------------------------------ *)
(* Server state                                                        *)
(* ------------------------------------------------------------------ *)

type config = {
  domains : int;
  certify : bool;
  cache_capacity : int;
  max_payload : int;
  max_conns : int;
  dispatch : Rc_analysis.Dispatch.mode;
}

let default_config =
  {
    domains = 1;
    certify = true;
    cache_capacity = 4096;
    max_payload = Wire.max_payload_default;
    max_conns = 32;
    dispatch = Rc_analysis.Dispatch.Direct;
  }

(* One live connection, as the registry sees it: the concurrent
   listener spawns a session domain per accepted connection, and the
   SHUTDOWN drain walks this registry to wait the other sessions out
   (forcing readers blocked mid-frame off their sockets after a
   grace).  [sess_fd] is the session's read side; [draining] marks a
   session that is itself executing a SHUTDOWN drain, so two
   simultaneous SHUTDOWNs do not wait on each other forever. *)
type session = {
  sid : int;
  sess_fd : Unix.file_descr;
  sess_requests : int Atomic.t;
  sess_finished : bool Atomic.t;
  sess_draining : bool Atomic.t;
}

type t = {
  config : config;
  pool : Pool.t;
  cache_mu : Mutex.t;
      (* Guards both LRUs below — [find] touches the recency list, so
         reads mutate too.  Leaf lock: never held across a [Pool.run],
         a solve, or any socket I/O (lock order: pool submission
         before cache, and the cache mutex nests inside nothing). *)
  cache : (string * int) Lru.t;  (* key -> (answer, cert byte) *)
  profiles : Profile.t Lru.t;  (* canonical hash -> structural profile *)
  stop : bool Atomic.t;
  active : int Atomic.t;  (* read cross-domain by the leak detector *)
  peak : int Atomic.t;  (* high-water mark of [active] *)
  connections : int Atomic.t;
  requests : int Atomic.t;
  sessions_mu : Mutex.t;
  mutable sessions : session list;  (* live sessions, newest first *)
  sid_counter : int Atomic.t;
}

let create ?(config = default_config) () =
  {
    config;
    pool = Pool.create ~domains:config.domains;
    cache_mu = Mutex.create ();
    cache = Lru.create config.cache_capacity;
    profiles = Lru.create config.cache_capacity;
    stop = Atomic.make false;
    active = Atomic.make 0;
    peak = Atomic.make 0;
    connections = Atomic.make 0;
    requests = Atomic.make 0;
    sessions_mu = Mutex.create ();
    sessions = [];
    sid_counter = Atomic.make 0;
  }

let destroy t = Pool.shutdown t.pool

let with_server ?config f =
  let t = create ?config () in
  Fun.protect ~finally:(fun () -> destroy t) (fun () -> f t)

let with_cache t f =
  Mutex.lock t.cache_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.cache_mu) f

let active_connections t = Atomic.get t.active
let peak_connections t = Atomic.get t.peak
let connections_served t = Atomic.get t.connections
let requests_served t = Atomic.get t.requests
let cache_entries t = with_cache t (fun () -> Lru.length t.cache)
let profiles_cached t = with_cache t (fun () -> Lru.length t.profiles)

let flush_cache t =
  with_cache t (fun () ->
      Lru.clear t.cache;
      Lru.clear t.profiles)

let sessions_snapshot t =
  Mutex.lock t.sessions_mu;
  let l = t.sessions in
  Mutex.unlock t.sessions_mu;
  l

(* STATS carries the freshest instance profiles at the bottom, bounded
   so the frame stays small whatever the cache capacity; same bound
   for the per-connection gauge lines. *)
let stats_profile_lines = 8
let stats_connection_lines = 8

let stats_text t =
  let base =
    Printf.sprintf
      "frames_decoded %d\n\
       frames_rejected %d\n\
       cache_hits %d\n\
       cache_misses %d\n\
       instances_decoded %d\n\
       cache_evictions %d\n\
       profile_hits %d\n\
       profile_misses %d\n\
       certified_ok %d\n\
       certified_failed %d\n\
       races_run %d\n\
       race_losers_cancelled %d\n\
       race_losers_finished %d\n\
       race_worst_cancel_latency_ns %d\n\
       connections_served %d\n\
       requests_served %d\n\
       active_connections %d\n\
       peak_connections %d\n\
       max_conns %d\n\
       cache_entries %d\n\
       profiles_cached %d\n\
       domains %d\n"
      (Sanitize.frames_decoded ())
      (Sanitize.frames_rejected ())
      (Sanitize.serve_cache_hits ())
      (Sanitize.serve_cache_misses ())
      (Sanitize.instances_decoded ())
      (Sanitize.serve_cache_evictions ())
      (Sanitize.serve_profile_hits ())
      (Sanitize.serve_profile_misses ())
      (Sanitize.certified_ok ())
      (Sanitize.certified_failed ())
      (Sanitize.races_run ())
      (Sanitize.race_losers_cancelled ())
      (Sanitize.race_losers_finished ())
      (Sanitize.race_worst_cancel_latency_ns ())
      (connections_served t) (requests_served t) (active_connections t)
      (peak_connections t) t.config.max_conns (cache_entries t)
      (profiles_cached t)
      (Pool.domains t.pool)
  in
  let race_wins =
    List.map
      (fun (b, n) -> Printf.sprintf "race_win %s %d\n" b n)
      (Sanitize.race_wins ())
  in
  let conns =
    let live =
      List.filter (fun s -> not (Atomic.get s.sess_finished)) (sessions_snapshot t)
    in
    let live = List.sort (fun a b -> compare a.sid b.sid) live in
    List.filteri (fun i _ -> i < stats_connection_lines) live
    |> List.map (fun s ->
           Printf.sprintf "connection %d requests %d\n" s.sid
             (Atomic.get s.sess_requests))
  in
  let profiles =
    with_cache t (fun () ->
        Lru.fold_recent t.profiles ~limit:stats_profile_lines
          (fun acc hash pr ->
            Printf.sprintf "profile %s %s\n" hash (Profile.summary pr) :: acc)
          [])
  in
  String.concat "" ((base :: race_wins) @ conns @ List.rev profiles)

(* ------------------------------------------------------------------ *)
(* Request decoding and solving                                        *)
(* ------------------------------------------------------------------ *)

(* Routed and direct answers are byte-identical (the invariant the
   differential suites pin), but the token keeps the cache honest if a
   future route ever changes what it streams. *)
let dispatch_token = function
  | Rc_analysis.Dispatch.Direct -> "direct"
  | Rc_analysis.Dispatch.Static_profile -> "static"

let cache_key t ~hash ~stoken =
  String.concat "|" [ hash; stoken; dispatch_token t.config.dispatch ]

(* The instance a fresh solve needs: the validated view of RCBI bytes
   copied out of the read buffer (decoded inside the solve task), or
   the problem a text request was parsed into to be keyed. *)
type instance = Rcbi of Instance_io.view | Parsed of Problem.t

type keyed = {
  strategies : Strategies.t list;
  stoken : string;  (* strategy component of [key] ("all" for the set) *)
  hash : string;  (* canonical instance hash, shared across strategies *)
  key : string;
  source : [ `View of Instance_io.view | `Parsed of Problem.t ];
      (* binary: the validated instance, still over the payload's bytes *)
}

(* Keys one SOLVE payload, held in bytes [0, len) of [payload] (the
   session's read buffer, which the next read overwrites).  A binary
   instance is validated and hashed in place
   ({!Instance_io.key_view}), so nothing is copied or built before the
   cache has been asked; a text instance is parsed, then hashed through
   its canonical encoding — the same key.  Must not raise: every failure
   is the request's typed refusal. *)
let key_solve t payload len : (keyed, Protocol.error) result =
  let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e in
  try
    let* () =
      if len < 2 then
        Error (Protocol.Bad_request "SOLVE payload shorter than its envelope")
      else Ok ()
    in
    let enc = Char.code payload.[0] in
    let slen = Char.code payload.[1] in
    let* () =
      if enc > 1 then
        Error (Protocol.Bad_request (Printf.sprintf "unknown encoding %d" enc))
      else if 2 + slen > len then
        Error (Protocol.Bad_request "strategy token runs past the payload")
      else Ok ()
    in
    let sname = String.sub payload 2 slen in
    let pos = 2 + slen and ilen = len - 2 - slen in
    let* strategies, stoken =
      if sname = "" || sname = "all" then Ok (Strategies.all_heuristics, "all")
      else
        match Strategies.of_string sname with
        | Ok s -> Ok ([ s ], Strategies.name s)
        | Error _ -> Error (Protocol.Unknown_strategy sname)
    in
    let* hash, source =
      match enc with
      | 0 -> (
          match Instance_io.key_view payload ~pos ~len:ilen with
          | Ok (hash, view) -> Ok (hash, `View view)
          | Error e ->
              Error (Protocol.Bad_instance (Instance_io.bin_error_to_string e)))
      | _ -> (
          match Instance_io.parse (String.sub payload pos ilen) with
          | Ok p -> Ok (Instance_io.canonical_hash p, `Parsed p)
          | Error m -> Error (Protocol.Bad_instance m))
    in
    Ok { strategies; stoken; hash; key = cache_key t ~hash ~stoken; source }
  with e -> Error (Protocol.Bad_instance (Printexc.to_string e))

(* A pool task: builds the problem (the only place a binary request
   becomes a [Problem.t]), solves, certifies.  Certification runs in
   whichever worker domain picked the slot, and its Sanitize tallies
   ride the pool's flush-at-join back to the process totals.  Must not
   raise. *)
let solve_and_render t ((k : keyed), instance) :
    (string * int, Protocol.error) result =
  try
    let problem =
      match instance with
      | Parsed p -> p
      | Rcbi view ->
          let p = Instance_io.view_problem view in
          Sanitize.note_instance_decoded ();
          p
    in
    (* Every fresh solve needs the instance's structural profile — for
       the profile cache, and (under [Static_profile]) as the router's
       input.  A hit on the shared cache skips the re-analysis; the
       mutex is held for the table touch only, never the analysis. *)
    let profile =
      match with_cache t (fun () -> Lru.find t.profiles k.hash) with
      | Some pr ->
          Sanitize.note_profile_hit ();
          pr
      | None ->
          Sanitize.note_profile_miss ();
          let pr = Profile.analyze problem in
          with_cache t (fun () -> Lru.add t.profiles k.hash pr);
          pr
    in
    let text, sols =
      render ~profile t.config.dispatch Strategies.default_config k.strategies
        problem
    in
    if not t.config.certify then Ok (text, 0)
    else begin
      let failure = ref None in
      List.iter
        (fun (s, sol) ->
          match claims_for s with
          | [] -> ()
          | claims ->
              if !failure = None then begin
                let report = Certify.certify_solution ~claims problem sol in
                let ok = Certify.ok report in
                Sanitize.note_certified ~ok;
                if not ok then
                  failure :=
                    Some
                      (Format.asprintf "%s: %a" (Strategies.name s)
                         Certify.pp_report report)
              end)
        sols;
      match !failure with
      | None -> Ok (text, 1)
      | Some m -> Error (Protocol.Certification_failed m)
    end
  with e ->
    Error (Protocol.Bad_instance ("solver failure: " ^ Printexc.to_string e))

(* A cached [all]-strategies answer subsumes any single-strategy
   request over the same instance: the stored text is the
   stats line plus one canonical report line per strategy, so the
   single strategy's answer is the stats line plus its line, found by
   the %-28s-padded name prefix.  (Exact is not in [all_heuristics],
   so its requests naturally miss.)  Caller holds [cache_mu]. *)
let subsume_from_all t (k : keyed) =
  match k.strategies with
  | [ s ] when k.stoken <> "all" -> (
      match Lru.find t.cache (cache_key t ~hash:k.hash ~stoken:"all") with
      | None -> None
      | Some (text, cert) -> (
          let prefix = Printf.sprintf "%-28s " (Strategies.name s) in
          match String.split_on_char '\n' text with
          | stats :: lines -> (
              match
                List.find_opt
                  (fun l -> String.starts_with ~prefix l)
                  lines
              with
              | Some line -> Some (stats ^ "\n" ^ line ^ "\n", cert)
              | None -> None)
          | [] -> None))
  | _ -> None

type reply =
  | R_answer of { cache_hit : bool; cert : int; text : string }
  | R_error of Protocol.error

(* One queued SOLVE: decided when it was read (a cache hit or a typed
   refusal), or answered by fresh solve [slot] of the batch — [alias]
   marks a repeat of an earlier request in the same batch, which is
   solved once and reported as a cache hit. *)
type queued = Done of reply | Slot of { slot : int; alias : bool }

(* A session's pending SOLVEs.  Each frame is keyed and classified as
   it is read, in submission order, because the read buffer it sits in
   is overwritten by the next read: only a miss copies its instance
   out.  Executing the batch is then one solve fan-out over the distinct
   misses. *)
type batch = {
  mutable queued : queued list;  (* newest first *)
  mutable size : int;
  slots : (string, int) Hashtbl.t;  (* key of each fresh solve -> slot *)
  mutable fresh : (keyed * instance) list;
      (* newest first; a slot counts from the oldest *)
}

let create_batch () =
  { queued = []; size = 0; slots = Hashtbl.create 16; fresh = [] }

let enqueue t b payload len =
  let q =
    match key_solve t payload len with
    | Error e ->
        Sanitize.note_frame_rejected ();
        Done (R_error e)
    | Ok k -> (
        (* One short cache_mu hold per request: the lookup (and the
           [all]-subsumption probe) touch the recency list. *)
        let cached =
          with_cache t (fun () ->
              match Lru.find t.cache k.key with
              | Some r -> Some r
              | None -> subsume_from_all t k)
        in
        match cached with
        | Some (text, cert) ->
            Sanitize.note_cache_hit ();
            Done (R_answer { cache_hit = true; cert; text })
        | None -> (
            match Hashtbl.find_opt b.slots k.key with
            | Some slot ->
                Sanitize.note_cache_hit ();
                Slot { slot; alias = true }
            | None ->
                Sanitize.note_cache_miss ();
                let slot = Hashtbl.length b.slots in
                Hashtbl.add b.slots k.key slot;
                let instance =
                  match k.source with
                  | `View view -> Rcbi (Instance_io.copy_view view)
                  | `Parsed p -> Parsed p
                in
                b.fresh <- (k, instance) :: b.fresh;
                Slot { slot; alias = false }))
  in
  b.queued <- q :: b.queued;
  b.size <- b.size + 1

(* Execute and empty one batch: solve fan-out over the distinct misses
   on the pool (whose index-slot result merge keeps everything
   deterministic at any domain count), insert their answers, and return
   the replies in submission order.  A batch of hits never touches the
   pool. *)
let run_batch t b : reply array =
  ignore (Atomic.fetch_and_add t.requests b.size);
  let fresh = Array.of_list (List.rev b.fresh) in
  let queued = b.queued in
  b.queued <- [];
  b.size <- 0;
  b.fresh <- [];
  Hashtbl.reset b.slots;
  let solved =
    Pool.run t.pool ~tasks:(Array.length fresh) (fun j ->
        solve_and_render t fresh.(j))
  in
  Array.iteri
    (fun j r ->
      match r with
      | Ok (text, cert) ->
          with_cache t (fun () -> Lru.add t.cache (fst fresh.(j)).key (text, cert))
      | Error _ -> ())
    solved;
  List.rev_map
    (function
      | Done r -> r
      | Slot { slot; alias } -> (
          match solved.(slot) with
          | Ok (text, cert) -> R_answer { cache_hit = alias; cert; text }
          | Error e ->
              Sanitize.note_frame_rejected ();
              R_error e))
    queued
  |> Array.of_list

(* ------------------------------------------------------------------ *)
(* Connection loop                                                     *)
(* ------------------------------------------------------------------ *)

let write_reply out_fd = function
  | R_answer { cache_hit; cert; text } ->
      let b = Buffer.create (2 + String.length text) in
      Buffer.add_char b (if cache_hit then '\001' else '\000');
      Buffer.add_char b (Char.chr cert);
      Buffer.add_string b text;
      write_frame out_fd ~typ:Wire.resp_answer (Buffer.contents b)
  | R_error e ->
      let m = Protocol.to_string e in
      let b = Buffer.create (1 + String.length m) in
      Buffer.add_char b (Char.chr (Protocol.code e));
      Buffer.add_string b m;
      write_frame out_fd ~typ:Wire.resp_error (Buffer.contents b)

let register_session t fd =
  let sid = Atomic.fetch_and_add t.sid_counter 1 in
  let s =
    {
      sid;
      sess_fd = fd;
      sess_requests = Atomic.make 0;
      sess_finished = Atomic.make false;
      sess_draining = Atomic.make false;
    }
  in
  Mutex.lock t.sessions_mu;
  t.sessions <- s :: t.sessions;
  Mutex.unlock t.sessions_mu;
  s

let unregister_session t s =
  Atomic.set s.sess_finished true;
  Mutex.lock t.sessions_mu;
  t.sessions <- List.filter (fun x -> x.sid <> s.sid) t.sessions;
  Mutex.unlock t.sessions_mu

(* SHUTDOWN's drain contract, concurrent edition: the draining session
   (own pending already answered) waits for every other live session to
   finish before its BYE.  Sessions parked at a frame boundary notice
   the stop flag within one poll tick and exit on their own; after a
   grace period, sessions still blocked {e inside} a frame (the
   half-header-and-stall client) are forced off their sockets with
   [shutdown(SHUTDOWN_RECEIVE)] — their read sees end of stream, they
   flush, report [Truncated_frame] and exit.  A hard cap bounds the
   wait so a pathological peer cannot hold BYE hostage. *)
let drain_grace = 0.5
let drain_limit = 10.

let drain_others t ~self =
  let others () =
    List.filter
      (fun s ->
        s.sid <> self.sid
        && (not (Atomic.get s.sess_finished))
        && not (Atomic.get s.sess_draining))
      (sessions_snapshot t)
  in
  let t0 = Unix.gettimeofday () in
  let forced = ref false in
  let rec wait () =
    match others () with
    | [] -> ()
    | stragglers ->
        let elapsed = Unix.gettimeofday () -. t0 in
        if elapsed > drain_limit then ()
        else begin
          if (not !forced) && elapsed >= drain_grace then begin
            forced := true;
            List.iter
              (fun s ->
                try Unix.shutdown s.sess_fd Unix.SHUTDOWN_RECEIVE
                with Unix.Unix_error _ -> ())
              stragglers
          end;
          Unix.sleepf 0.02;
          wait ()
        end
  in
  wait ()

(* Polling tick for both the session read loops and the listener: long
   enough to keep idle waiting cheap, short enough that a stop flag
   propagates promptly. *)
let poll_tick = 0.05

let serve_connection t ~in_fd ~out_fd =
  let sess = register_session t in_fd in
  Atomic.incr t.active;
  (* Racy max() would lose updates; CAS-retry keeps the high-water mark
     exact under concurrent arrivals. *)
  let rec bump_peak () =
    let a = Atomic.get t.active in
    let p = Atomic.get t.peak in
    if a > p && not (Atomic.compare_and_set t.peak p a) then bump_peak ()
  in
  bump_peak ();
  Atomic.incr t.connections;
  let result = ref `Closed in
  Fun.protect
    ~finally:(fun () ->
      unregister_session t sess;
      Atomic.decr t.active;
      (* Publish this session domain's counter tallies before the
         connection is observably gone (the fd closes after this
         returns), so post-close counter reads are exact. *)
      Sanitize.flush ())
    (fun () ->
      (* The session's one read buffer: grown to its largest frame,
         reused by every read, freed with the session. *)
      let buf = ref Bytes.empty in
      let pending = create_batch () in
      let flush_pending () =
        if pending.size > 0 then begin
          ignore (Atomic.fetch_and_add sess.sess_requests pending.size);
          Array.iter (write_reply out_fd) (run_batch t pending)
        end
      in
      (try
         let continue = ref true in
         if Atomic.get t.stop then begin
           (* A connection racing a drain gets a typed refusal. *)
           write_reply out_fd (R_error Protocol.Shutting_down);
           continue := false
         end;
         while !continue do
           (* Frame boundary: wait for bytes or the stop flag.  An
              empty poll tick is the batch boundary — execute what
              queued (an interactive client gets its answer
              immediately; a saturating one batches). *)
           let ready = readable in_fd in
           if not ready then flush_pending ();
           if Atomic.get t.stop then begin
             (* Another session's SHUTDOWN: answers are flushed, tell
                the peer the server is going away, and exit so the
                drainer's wait sees this session finished. *)
             flush_pending ();
             write_reply out_fd (R_error Protocol.Shutting_down);
             continue := false
           end
           else if not (ready || readable ~timeout:poll_tick in_fd) then ()
           else
             match read_frame ~max_payload:t.config.max_payload in_fd buf with
             | Eof ->
                 flush_pending ();
                 continue := false
             | Bad e ->
                 Sanitize.note_frame_rejected ();
                 flush_pending ();
                 write_reply out_fd (R_error e);
                 continue := false
             | Frame (typ, len) ->
                 if typ = Wire.req_solve then begin
                   Sanitize.note_frame_decoded ();
                   enqueue t pending (Bytes.unsafe_to_string !buf) len
                 end
                 else if typ = Wire.req_flush then begin
                   Sanitize.note_frame_decoded ();
                   flush_pending ()
                 end
                 else if typ = Wire.req_ping then begin
                   Sanitize.note_frame_decoded ();
                   flush_pending ();
                   write_frame out_fd ~typ:Wire.resp_pong ""
                 end
                 else if typ = Wire.req_stats then begin
                   Sanitize.note_frame_decoded ();
                   flush_pending ();
                   Sanitize.flush ();
                   write_frame out_fd ~typ:Wire.resp_stats (stats_text t)
                 end
                 else if typ = Wire.req_shutdown then begin
                   Sanitize.note_frame_decoded ();
                   (* Drain: own pending answers first, then every
                      other in-flight session, then the goodbye. *)
                   flush_pending ();
                   Atomic.set sess.sess_draining true;
                   Atomic.set t.stop true;
                   drain_others t ~self:sess;
                   write_frame out_fd ~typ:Wire.resp_bye "";
                   result := `Shutdown;
                   continue := false
                 end
                 else begin
                   Sanitize.note_frame_rejected ();
                   flush_pending ();
                   write_reply out_fd (R_error (Protocol.Unknown_frame_type typ));
                   continue := false
                 end
         done
       with Unix.Unix_error _ ->
         (* The peer vanished mid-write; its answers die with it. *)
         ());
      !result)

let ignoring_sigpipe f =
  match Sys.signal Sys.sigpipe Sys.Signal_ignore with
  | old -> Fun.protect ~finally:(fun () -> Sys.set_signal Sys.sigpipe old) f
  | exception Invalid_argument _ -> f () (* no SIGPIPE on this platform *)

(* ------------------------------------------------------------------ *)
(* Concurrent listener                                                 *)
(* ------------------------------------------------------------------ *)

(* The listener domain's accept loop: poll the listening socket (so the
   stop flag is honored promptly), spawn one session domain per
   accepted connection, and refuse connections beyond [max_conns] with
   the typed [Server_busy] code.  The busy bound counts this
   listener's unreaped session domains — deterministic from the
   listener's point of view, which is what the torture suite pins.
   On stop, every session domain is joined before returning, so the
   caller gets the socket back only after the drain completed. *)
let listen_loop t sock ~tcp =
  Atomic.set t.stop false;
  let handlers = ref [] in
  let reap () =
    handlers :=
      List.filter
        (fun (d, fin) ->
          if Atomic.get fin then begin
            Domain.join d;
            false
          end
          else true)
        !handlers
  in
  let accept_one () =
    match Unix.accept sock with
    | exception Unix.Unix_error _ -> ()
    | client, _ ->
        if List.length !handlers >= t.config.max_conns then begin
          (try
             write_reply client
               (R_error
                  (Protocol.Server_busy
                     {
                       active = List.length !handlers;
                       limit = t.config.max_conns;
                     }))
           with Unix.Unix_error _ -> ());
          try Unix.close client with Unix.Unix_error _ -> ()
        end
        else begin
          if tcp then
            (try Unix.setsockopt client Unix.TCP_NODELAY true
             with Unix.Unix_error _ -> ());
          let fin = Atomic.make false in
          let d =
            Domain.spawn (fun () ->
                Fun.protect
                  ~finally:(fun () ->
                    (try Unix.close client with Unix.Unix_error _ -> ());
                    Atomic.set fin true)
                  (fun () ->
                    ignore (serve_connection t ~in_fd:client ~out_fd:client)))
          in
          handlers := (d, fin) :: !handlers
        end
  in
  while not (Atomic.get t.stop) do
    reap ();
    if readable ~timeout:poll_tick sock then accept_one ()
  done;
  List.iter (fun (d, _) -> Domain.join d) !handlers;
  handlers := []

let serve_unix t ~path =
  ignoring_sigpipe (fun () ->
      let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      Unix.bind sock (Unix.ADDR_UNIX path);
      Unix.listen sock 64;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.close sock with Unix.Unix_error _ -> ());
          try Unix.unlink path with Unix.Unix_error _ -> ())
        (fun () -> listen_loop t sock ~tcp:false))

let serve_tcp t ?ready ~host ~port () =
  ignoring_sigpipe (fun () ->
      let addr =
        try Unix.inet_addr_of_string host
        with Failure _ -> (
          match
            Unix.getaddrinfo host ""
              [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
          with
          | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
          | _ -> invalid_arg ("Server.serve_tcp: cannot resolve host " ^ host))
      in
      let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt sock Unix.SO_REUSEADDR true;
      Unix.bind sock (Unix.ADDR_INET (addr, port));
      Unix.listen sock 64;
      let bound =
        match Unix.getsockname sock with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> port
      in
      Option.iter (fun f -> f bound) ready;
      Fun.protect
        ~finally:(fun () -> try Unix.close sock with Unix.Unix_error _ -> ())
        (fun () -> listen_loop t sock ~tcp:true))

let serve_stdio t =
  ignoring_sigpipe (fun () ->
      Atomic.set t.stop false;
      ignore (serve_connection t ~in_fd:Unix.stdin ~out_fd:Unix.stdout))

(* ------------------------------------------------------------------ *)
(* Client                                                              *)
(* ------------------------------------------------------------------ *)

module Client = struct
  type response =
    | Answer of { cache_hit : bool; certified : bool; text : string }
    | Error of { code : int; message : string }
    | Pong
    | Stats of string
    | Bye

  type recv_result = Resp of response | Eof

  let connect ?(attempts = 50) path =
    let rec go n =
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match Unix.connect fd (Unix.ADDR_UNIX path) with
      | () -> fd
      | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
        when n > 1 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.02;
          go (n - 1)
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    go (max 1 attempts)

  let connect_tcp ?(attempts = 50) host port =
    let addr =
      try Unix.inet_addr_of_string host
      with Failure _ -> (
        match
          Unix.getaddrinfo host ""
            [ Unix.AI_FAMILY Unix.PF_INET; Unix.AI_SOCKTYPE Unix.SOCK_STREAM ]
        with
        | { Unix.ai_addr = Unix.ADDR_INET (a, _); _ } :: _ -> a
        | _ -> invalid_arg ("Server.Client.connect_tcp: cannot resolve " ^ host))
    in
    let rec go n =
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      match
        Unix.connect fd (Unix.ADDR_INET (addr, port));
        Unix.setsockopt fd Unix.TCP_NODELAY true
      with
      | () -> fd
      | exception Unix.Unix_error (Unix.ECONNREFUSED, _, _) when n > 1 ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          Unix.sleepf 0.02;
          go (n - 1)
      | exception e ->
          (try Unix.close fd with Unix.Unix_error _ -> ());
          raise e
    in
    go (max 1 attempts)

  let send_solve fd ?strategy ~encoding instance =
    write_frame fd ~typ:Wire.req_solve
      (Wire.solve_payload ?strategy ~encoding instance)

  let send_ping fd = write_frame fd ~typ:Wire.req_ping ""
  let send_flush fd = write_frame fd ~typ:Wire.req_flush ""
  let send_stats fd = write_frame fd ~typ:Wire.req_stats ""
  let send_shutdown fd = write_frame fd ~typ:Wire.req_shutdown ""

  let recv fd =
    let buf = ref Bytes.empty in
    match read_frame ~max_payload:Wire.max_payload_default fd buf with
    | Eof -> Eof
    | Bad e -> failwith ("Server.Client.recv: " ^ Protocol.to_string e)
    | Frame (typ, _) ->
        (* A fresh buffer is grown to exactly the payload's length. *)
        let payload = Bytes.unsafe_to_string !buf in
        if typ = Wire.resp_answer then begin
          if String.length payload < 2 then
            failwith "Server.Client.recv: short ANSWER payload";
          Resp
            (Answer
               {
                 cache_hit = payload.[0] = '\001';
                 certified = payload.[1] = '\001';
                 text =
                   String.sub payload 2 (String.length payload - 2);
               })
        end
        else if typ = Wire.resp_error then begin
          if String.length payload < 1 then
            failwith "Server.Client.recv: short ERROR payload";
          Resp
            (Error
               {
                 code = Char.code payload.[0];
                 message = String.sub payload 1 (String.length payload - 1);
               })
        end
        else if typ = Wire.resp_pong then Resp Pong
        else if typ = Wire.resp_stats then Resp (Stats payload)
        else if typ = Wire.resp_bye then Resp Bye
        else failwith (Printf.sprintf "Server.Client.recv: response type 0x%02x" typ)

  let close fd = try Unix.close fd with Unix.Unix_error _ -> ()
end
