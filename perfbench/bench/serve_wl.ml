(* serve-hit and serve-miss: one closed-loop client on one connection,
   no think time, against [coalesce serve] in its own process with a
   1-domain pool. *)

module Server = Rc_engine.Server
module Client = Server.Client
module Strategies = Rc_core.Strategies
module Problem = Rc_core.Problem
module Instance_io = Rc_challenge.Instance_io
module Profile = Rc_analysis.Profile
module Certify = Rc_check.Certify

type kind = Hit | Miss

type spec = {
  kind : kind;
  transport : Proc.transport;
  cache_entries : int;
  setups : int;  (** set-ups per run; [setup_s] is their median *)
  tail_q : float;  (** the fixed tail percentile *)
}

let spec kind scale =
  match kind with
  | Hit ->
      (* p99.5 lies within the two 10^4-vertex instances' hits (0.8% of
         the requests). *)
      { kind = Hit; transport = Proc.Unix_socket; cache_entries = 4096;
        setups = 3; tail_q = 99.5 }
  | Miss ->
      (* 64 entries (16 at toy size): far below a phase's distinct keys
         and instances, so inserts evict and a replayed phase misses
         again, yet each instance's profile outlives its 11 requests.
         p98, not
         p99: chordal-incremental's costly chordal instances are ~2.7% of
         the requests, and p99 lands in that sparse tail, where it moves
         20-25% between seeds; p98 still has hundreds of samples beyond. *)
      {
        kind = Miss;
        transport = Proc.Tcp;
        cache_entries = (match scale with Corpus.Full -> 64 | Corpus.Toy -> 16);
        setups = 5;
        tail_q = 98.;
      }

let hit_strategy = Strategies.Conservative Rc_core.Conservative.Briggs_george

type outcome =
  | Answer of { cache_hit : bool; certified : bool; text : string }
  | Refused of string
  | Lost of string  (** timeout, disconnect or unparsable reply *)

type record = {
  inst : int;
  sidx : int;  (** index into [strategies kind] *)
  strategy : Strategies.t;
  req_bytes : int;
  t0 : int64;
  t1 : int64;
  outcome : outcome;
}

let rtt_ms r = Int64.to_float (Int64.sub r.t1 r.t0) /. 1e6

(* ------------------------------------------------------------------ *)
(* Inputs                                                              *)
(* ------------------------------------------------------------------ *)

(* The strategies a request may name: one on serve-hit, the 11
   heuristics on serve-miss. *)
let strategies = function
  | Hit -> [| hit_strategy |]
  | Miss -> Array.of_list Strategies.all_heuristics

(* The instances and request units of one run.  A unit is a whole
   cycle of the hit corpus, or one miss instance under all 11
   heuristics; timed phases end on a unit boundary.  Every SOLVE frame
   is encoded when its instance is made, never inside a timed phase. *)
type inputs = {
  kind : kind;
  seed : int;
  scale : Corpus.scale;
  mutable problems : Problem.t array;
  mutable bins : string array;
  mutable frames : string array array;  (** instance, then strategy *)
  seen : (string, unit) Hashtbl.t;  (** canonical hashes of miss instances *)
  mutable drawn : int;  (** miss candidates generated so far *)
}

let add_instances inputs problems bins =
  let frames =
    Array.map
      (fun bin ->
        Array.map
          (fun s ->
            Server.Wire.encode_frame ~typ:Server.Wire.req_solve
              (Server.Wire.solve_payload ~strategy:(Strategies.name s)
                 ~encoding:`Binary bin))
          (strategies inputs.kind))
      bins
  in
  inputs.problems <- Array.append inputs.problems problems;
  inputs.bins <- Array.append inputs.bins bins;
  inputs.frames <- Array.append inputs.frames frames

let miss_batch_size = function Corpus.Full -> 256 | Corpus.Toy -> 8

(* Make unit [u]'s instance exist.  Miss instances are drawn in batches
   and deduplicated by canonical hash: a repeated graph would be a
   cache hit. *)
let ensure inputs u =
  while inputs.kind = Miss && u >= Array.length inputs.problems do
    let count = miss_batch_size inputs.scale in
    let fresh = Corpus.miss_batch ~seed:inputs.seed ~first:inputs.drawn ~count in
    inputs.drawn <- inputs.drawn + count;
    let keep =
      List.filter_map
        (fun p ->
          let bin = Instance_io.to_binary p in
          let h = Instance_io.hash_binary bin in
          if Hashtbl.mem inputs.seen h then None
          else begin
            Hashtbl.replace inputs.seen h ();
            Some (p, bin)
          end)
        (Array.to_list fresh)
    in
    add_instances inputs
      (Array.of_list (List.map fst keep))
      (Array.of_list (List.map snd keep))
  done

let inputs kind ~seed scale =
  let t =
    {
      kind; seed; scale; problems = [||]; bins = [||]; frames = [||];
      seen = Hashtbl.create 1024; drawn = 0;
    }
  in
  (match kind with
  | Hit ->
      let problems = Corpus.hit_corpus ~seed scale in
      add_instances t problems (Array.map Instance_io.to_binary problems)
  | Miss -> ensure t 0);
  t

(* Requests as (instance, strategy index): a seeded shuffle of the hit
   corpus per cycle; 11 heuristics per miss instance, in their
   canonical order. *)
let unit_reqs inputs u =
  match inputs.kind with
  | Hit ->
      let st = Random.State.make [| inputs.seed; u |] in
      let a = Array.init (Array.length inputs.problems) (fun i -> i) in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let x = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- x
      done;
      Array.map (fun i -> (i, 0)) a
  | Miss -> Array.init (Array.length (strategies Miss)) (fun j -> (u, j))

(* ------------------------------------------------------------------ *)
(* The closed loop                                                     *)
(* ------------------------------------------------------------------ *)

let rec write_all fd s ofs len =
  if len > 0 then
    let n = Unix.write_substring fd s ofs len in
    write_all fd s (ofs + n) (len - n)

let round_trip (srv : Proc.server) inputs (i, j) =
  let f = inputs.frames.(i).(j) in
  let t0 = Trace.now () in
  let outcome =
    match
      write_all srv.fd f 0 (String.length f);
      Client.recv srv.fd
    with
    | Client.Resp (Client.Answer { cache_hit; certified; text }) ->
        Answer { cache_hit; certified; text }
    | Client.Resp (Client.Error { code; message }) ->
        Refused (Printf.sprintf "code %d: %s" code message)
    | Client.Resp _ -> Lost "unexpected frame"
    | Client.Eof -> Lost "server closed the connection"
    | exception Unix.Unix_error (e, _, _) -> Lost (Unix.error_message e)
    | exception Failure m -> Lost m
  in
  {
    inst = i;
    sidx = j;
    strategy = (strategies inputs.kind).(j);
    req_bytes = String.length inputs.bins.(i);
    t0;
    t1 = Trace.now ();
    outcome;
  }

type slice = {
  rps : float;  (** answers per second *)
  steal : float;  (** share of the host's CPU time stolen meanwhile *)
  first : int;  (** the slice's records are [first, first + count) *)
  count : int;
}

type phase = { records : record array; wall_s : float; slices : slice array }

let lost r = match r.outcome with Lost _ -> true | _ -> false
let slice_s = 0.5

(* Whole units until [seconds] have passed on the phase clock (which
   stops while [ensure] generates instances).  Consecutive units are
   grouped into slices of at least [slice_s], each with the host's steal
   share; throughput is the median slice rate, so a burst of host noise
   moves it less than a mean would.  A lost connection ends the phase. *)
let run_units srv inputs ~seconds =
  let acc = ref [] and n = ref 0 and active = ref 0. and broken = ref false in
  let slices = ref [] and slice_n = ref 0 and slice_t = ref 0. in
  let slice_host = ref (Proc.host_cpu ()) in
  let close_slice () =
    let h = Proc.host_cpu () in
    slices :=
      {
        rps = float_of_int !slice_n /. !slice_t;
        steal = Proc.steal_share !slice_host h;
        first = !n - !slice_n;
        count = !slice_n;
      }
      :: !slices;
    slice_host := h;
    slice_n := 0;
    slice_t := 0.
  in
  let u = ref 0 in
  while (not !broken) && !active < seconds do
    ensure inputs !u;
    let t0 = Rc_core.Mclock.now_s () in
    Array.iter
      (fun rq ->
        if not !broken then begin
          let r = round_trip srv inputs rq in
          acc := r :: !acc;
          incr n;
          incr slice_n;
          if lost r then broken := true
        end)
      (unit_reqs inputs !u);
    let dt = Rc_core.Mclock.now_s () -. t0 in
    active := !active +. dt;
    slice_t := !slice_t +. dt;
    if !slice_t >= slice_s then close_slice ();
    incr u
  done;
  if !slice_n > 0 then close_slice ();
  {
    records = Array.of_list (List.rev !acc);
    wall_s = !active;
    slices = Array.of_list (List.rev !slices);
  }

(* Slices in which the hypervisor stole 3% or more of the host's CPU
   time measure the host, not the program: when at least half of the
   phase's slices are quieter, the timing metrics use only those. *)
let max_slice_steal = 0.03

let quiet_slices (ph : phase) =
  let quiet =
    Array.of_list
      (List.filter (fun s -> s.steal < max_slice_steal) (Array.to_list ph.slices))
  in
  let used =
    if 2 * Array.length quiet >= Array.length ph.slices then quiet else ph.slices
  in
  Out.info "slices  %d of %d slices had steal under %g%%; timing uses %d"
    (Array.length quiet) (Array.length ph.slices) (100. *. max_slice_steal)
    (Array.length used);
  ( Array.concat
      (List.map (fun s -> Array.sub ph.records s.first s.count) (Array.to_list used)),
    Array.map (fun s -> s.rps) used )

let replay srv inputs (reqs : (int * int) array) =
  let t0 = Rc_core.Mclock.now_s () in
  let records = Array.map (fun rq -> round_trip srv inputs rq) reqs in
  { records; wall_s = Rc_core.Mclock.now_s () -. t0; slices = [||] }

(* ------------------------------------------------------------------ *)
(* Output check                                                        *)
(* ------------------------------------------------------------------ *)

(* Every answer must be byte-identical to [Server.one_shot] for its
   instance and strategy (compared by digest) and carry the certified
   flag when its strategy claims conservativeness.  [corrupt] (1-based)
   damages one answer on purpose, for the self-test. *)
let check_answers inputs ?(corrupt = 0) (records : record array) =
  let keys = Hashtbl.create 1024 in
  Array.iter
    (fun r -> Hashtbl.replace keys (r.inst, Strategies.name r.strategy) r)
    records;
  let keys = Array.of_seq (Hashtbl.to_seq_values keys) in
  let digests =
    Corpus.par_init (Array.length keys) (fun j ->
        let r = keys.(j) in
        Digest.string
          (Server.one_shot ~strategies:[ r.strategy ] inputs.problems.(r.inst)))
  in
  let expected = Hashtbl.create 1024 in
  Array.iteri
    (fun j r ->
      Hashtbl.replace expected (r.inst, Strategies.name r.strategy) digests.(j))
    keys;
  let failed = ref 0 and why = ref [] in
  let fail i m =
    incr failed;
    if List.length !why < 5 then why := Printf.sprintf "#%d %s" i m :: !why
  in
  Array.iteri
    (fun i r ->
      match r.outcome with
      | Answer { certified; text; _ } ->
          let text = if i + 1 = corrupt then text ^ "!" else text in
          if
            Digest.string text
            <> Hashtbl.find expected (r.inst, Strategies.name r.strategy)
          then fail i "answer differs from one_shot"
          else if Layers.claims r.strategy <> [] && not certified then
            fail i "claimed answer not certified"
      | Refused m -> fail i ("refused: " ^ m)
      | Lost m -> fail i ("lost: " ^ m))
    records;
  List.iter (fun m -> Out.info "failure %s" m) (List.rev !why);
  !failed

(* The coalesced share of affinity weight, averaged over the answers
   (the challenge leaderboard's score).  The second line of an answer
   reads "<strategy> <coalesced>/<total> weight ...". *)
let weight_frac (records : record array) =
  let fractions =
    Array.to_list records
    |> List.filter_map (fun r ->
           match r.outcome with
           | Answer { text; _ } -> (
               match String.split_on_char '\n' text with
               | _ :: line :: _ ->
                   List.find_map
                     (fun tok ->
                       match String.split_on_char '/' tok with
                       | [ a; b ] -> (
                           match (int_of_string_opt a, int_of_string_opt b) with
                           | Some a, Some b -> Some (Stats.fraction a b)
                           | _ -> None)
                       | _ -> None)
                     (List.tl (String.split_on_char ' ' line))
               | _ -> None)
           | _ -> None)
  in
  Stats.mean (Array.of_list fractions)

(* ------------------------------------------------------------------ *)
(* Set-up                                                              *)
(* ------------------------------------------------------------------ *)

(* Start a server (and, for serve-hit, warm every corpus instance once);
   repeat [spec.setups] times and keep the last server. *)
let set_up (spec : spec) inputs ~coalesce ~dir ~tag =
  let one k =
    let srv =
      Proc.start_server ~coalesce ~dir
        ~tag:(Printf.sprintf "%s-%d" tag k)
        ~transport:spec.transport ~cache_entries:spec.cache_entries
    in
    let t0 = Rc_core.Mclock.now_s () in
    let warm =
      match spec.kind with
      | Hit ->
          (replay srv inputs
             (Array.init (Array.length inputs.problems) (fun i ->
                  (i, 0))))
            .records
      | Miss -> [||]
    in
    (srv, srv.setup_s +. (Rc_core.Mclock.now_s () -. t0), warm)
  in
  let rec go k acc =
    let srv, s, warm = one k in
    if k + 1 < spec.setups then begin
      ignore (Proc.stop srv);
      go (k + 1) (s :: acc)
    end
    else (srv, Stats.median (Array.of_list (s :: acc)), warm)
  in
  go 0 []

(* ------------------------------------------------------------------ *)
(* Self-checks and metrics shared by both modes                        *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let self_checks (spec : spec) st0 st1 =
  let d = Proc.delta st0 st1 in
  let hits = d "cache_hits" and misses = d "cache_misses" in
  let hit_ratio = ratio hits (hits + misses) in
  let ph = d "profile_hits" and pm = d "profile_misses" in
  let profile_ratio = ratio ph (ph + pm) in
  (match spec.kind with
  | Hit ->
      Out.check "serve-hit.cache_hit_ratio=1" (hit_ratio = 1.)
        (Printf.sprintf "%d hits, %d misses" hits misses)
  | Miss ->
      Out.check "serve-miss.cache_hit_ratio=0" (hits = 0 && misses > 0)
        (Printf.sprintf "%d hits, %d misses" hits misses);
      Out.check "serve-miss.profile_hit_ratio=10/11"
        (pm > 0 && ph = 10 * pm)
        (Printf.sprintf "%d hits, %d misses" ph pm);
      Out.check "serve-miss.cache_evictions>0"
        (d "cache_evictions" > 0)
        (Printf.sprintf "%d evictions" (d "cache_evictions")));
  (hit_ratio, profile_ratio)

let check_dense (spec : spec) problems =
  let f = Layers.dense_row_frac problems in
  (match spec.kind with
  | Miss ->
      Out.check "serve-miss.flat.dense_row_frac>0" (f > 0.)
        (Printf.sprintf "%.3f" f)
  | Hit -> ());
  f

let tail_check name q n =
  let b = Stats.beyond n q in
  Out.check (name ^ ".tail_samples>=10") (b >= 10)
    (Printf.sprintf "p%g of %d samples, %d beyond" q n b)

let used_problems inputs (records : record array) =
  let seen = Hashtbl.create 1024 in
  Array.iter (fun r -> Hashtbl.replace seen r.inst ()) records;
  Array.of_seq (Seq.map (fun i -> inputs.problems.(i)) (Hashtbl.to_seq_keys seen))

(* ------------------------------------------------------------------ *)
(* End-to-end run                                                      *)
(* ------------------------------------------------------------------ *)

let name = function Hit -> "serve-hit" | Miss -> "serve-miss"
let quiet_wait = function Corpus.Full -> 10. | Corpus.Toy -> 0.

let run ~kind ~seed ~seconds ~scale ~coalesce ~dir ~corrupt =
  let spec = spec kind scale in
  let wl = name kind in
  let t0 = Rc_core.Mclock.now_s () in
  let inputs = inputs kind ~seed scale in
  Out.info "corpus  %d instances generated in %.2f s (not timed)"
    (Array.length inputs.problems) (Rc_core.Mclock.now_s () -. t0);
  Proc.wait_quiet ~max_s:(quiet_wait scale);
  let srv, setup_s, warm = set_up spec inputs ~coalesce ~dir ~tag:wl in
  let st0 = Proc.stats srv in
  let cpu0 = Proc.cpu_s srv.pid and host0 = Proc.host_cpu () in
  let ph = run_units srv inputs ~seconds in
  let cpu1 = Proc.cpu_s srv.pid in
  Proc.report_steal host0;
  let rss = Proc.vm_hwm_mb srv.pid in
  let st1 = Proc.stats srv in
  ignore (Proc.stop srv);
  let n = Array.length ph.records in
  Out.info "phase   %d requests in %.2f s; server cpu %.2f s" n ph.wall_s
    (cpu1 -. cpu0);
  ignore (self_checks spec st0 st1);
  let all = Array.append warm ph.records in
  ignore (check_dense spec (used_problems inputs all));
  let failed = check_answers inputs ~corrupt ph.records in
  let warm_failed = check_answers inputs warm in
  Out.check (wl ^ ".warm_answers_ok") (warm_failed = 0)
    (Printf.sprintf "%d warm answers, %d failed" (Array.length warm) warm_failed);
  let timed, rates = quiet_slices ph in
  let rtts = Stats.sorted (Array.map rtt_ms timed) in
  let nt = Array.length timed in
  tail_check wl spec.tail_q nt;
  Out.info "tail    latency_tail_ms is p%g over %d samples (%d beyond)"
    spec.tail_q nt (Stats.beyond nt spec.tail_q);
  Out.metric "setup_s" "s" setup_s;
  Out.metric "latency_p50_ms" "ms" (Stats.pct_sorted rtts 50.);
  Out.metric "latency_tail_ms" "ms" (Stats.pct_sorted rtts spec.tail_q);
  Out.metric "throughput_rps" "1/s" (Stats.median rates);
  Out.metric "weight_coalesced_frac" "frac" (weight_frac ph.records);
  Out.metric "peak_rss_mb" "MiB" rss;
  Out.info "metric %-40s %.6g %s" "failed_frac" (ratio failed n) "frac";
  (n, failed)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

let inproc_spans =
  [ "instance_io.of_binary"; "instance_io.canonical_hash"; "profile.analyze";
    "strategies.run_cfg"; "strategies.render"; "certify.certify_solution" ]

(* The server's path for one request, call by call, from this process:
   decode and hash, then on a miss profile (once per instance), solve,
   render and certify.  [req] ties the spans to the served round trip.
   False when certification rejects the answer. *)
let replay_request inputs ~req ~miss ~profiled (i, s) =
  let p =
    Trace.with_span ~req "instance_io.of_binary" (fun () ->
        match Instance_io.of_binary inputs.bins.(i) with
        | Ok p -> p
        | Error e -> failwith (Instance_io.bin_error_to_string e))
  in
  let hash =
    Trace.with_span ~req "instance_io.canonical_hash" (fun () ->
        Instance_io.canonical_hash p)
  in
  (not miss)
  ||
  begin
    if not (Hashtbl.mem profiled hash) then begin
      Hashtbl.replace profiled hash ();
      ignore
        (Trace.with_span ~req "profile.analyze" (fun () -> Profile.analyze p))
    end;
    let t0 = Trace.now () in
    let sol =
      Trace.with_span ~req "strategies.run_cfg" (fun () ->
          Strategies.run_cfg Strategies.default_config s p)
    in
    Layers.note_heuristic s (Int64.to_float (Int64.sub (Trace.now ()) t0) /. 1e6);
    ignore
      (Trace.with_span ~req "strategies.render" (fun () ->
           Problem.stats p ^ "\n"
           ^ Format.asprintf "%a" Strategies.pp_report_canonical
               (Strategies.report_of_solution s p sol)));
    match Layers.claims s with
    | [] -> true
    | claims ->
        Certify.ok
          (Trace.with_span ~req "certify.certify_solution" (fun () ->
               Certify.certify_solution ~claims p sol))
  end

(* Where the time of the requests around the median and the tail round
   trip goes (the mean over the requests ranked within one percentile
   point of it), and which heuristics the tail requests ran. *)
let report_split (spec : spec) (records : record array) residual_ms =
  let part names = Trace.per_req_ms names in
  let decode = part [ "instance_io.of_binary" ]
  and hash = part [ "instance_io.canonical_hash" ]
  and solve =
    part [ "profile.analyze"; "strategies.run_cfg"; "strategies.render";
           "certify.certify_solution" ]
  in
  let n = Array.length records in
  let order = Array.init n (fun i -> i) in
  Array.sort (fun i j -> Float.compare (rtt_ms records.(i)) (rtt_ms records.(j))) order;
  let at q =
    let lo = max 0 (Stats.rank n (q -. 1.) - 1)
    and hi = min (n - 1) (Stats.rank n (Float.min 100. (q +. 1.)) - 1) in
    let band = Array.sub order lo (hi - lo + 1) in
    let mean f = Stats.mean (Array.map f band) in
    let get t i = Option.value ~default:0. (Hashtbl.find_opt t i) in
    Out.info
      "split   p%g round trip %.3f ms = decode %.3f + hash %.3f + solve path \
       %.3f + server.residual %.3f (mean of %d requests)"
      q
      (mean (fun i -> rtt_ms records.(i)))
      (mean (get decode)) (mean (get hash)) (mean (get solve))
      (mean (fun i -> residual_ms.(i)))
      (Array.length band)
  in
  at 50.;
  at spec.tail_q;
  let tail = Stats.pct (Array.map rtt_ms records) spec.tail_q in
  let by = Hashtbl.create 16 in
  Array.iter
    (fun r ->
      if rtt_ms r > tail then
        let k = Strategies.name r.strategy in
        Hashtbl.replace by k (1 + Option.value ~default:0 (Hashtbl.find_opt by k)))
    records;
  Out.info "tail    requests beyond p%g (%.3f ms) by heuristic: %s" spec.tail_q tail
    (String.concat ", "
       (List.map
          (fun (k, c) -> Printf.sprintf "%s %d" k c)
          (List.sort compare (List.of_seq (Hashtbl.to_seq by)))))

(* Phase A runs untraced like the end-to-end run, for half its time;
   phase B replays A's requests with a client span per round trip; then
   this process replays the warm pass and B's requests through the
   layers' public functions.  The whole traced run takes about as long
   as an end-to-end one.  Returns (attempted, failed). *)
let traced ~kind ~seed ~seconds ~scale ~coalesce ~dir ~trace_file =
  let spec = spec kind scale in
  let wl = name kind in
  let inputs = inputs kind ~seed scale in
  let srv, _, warm = set_up { spec with setups = 1 } inputs ~coalesce ~dir ~tag:wl in
  let st0 = Proc.stats srv in
  let cpu0 = Proc.cpu_s srv.pid and host0 = Proc.host_cpu () in
  let a = run_units srv inputs ~seconds:(seconds /. 2.) in
  let cpu1 = Proc.cpu_s srv.pid in
  let st1 = Proc.stats srv in
  let reqs = Array.map (fun r -> (r.inst, r.sidx)) a.records in
  let t0 = Rc_core.Mclock.now_s () in
  let b =
    Array.mapi
      (fun req rq ->
        let r = round_trip srv inputs rq in
        ignore (Trace.add ~req "client.round_trip" r.t0 r.t1);
        r)
      reqs
  in
  let b = { records = b; wall_s = Rc_core.Mclock.now_s () -. t0; slices = [||] } in
  let st2 = Proc.stats srv in
  Proc.report_steal host0;
  let gc = Proc.stop srv in
  let hit_ratio, profile_ratio = self_checks spec st0 st1 in
  ignore (self_checks spec st1 st2);
  let failed =
    check_answers inputs a.records + check_answers inputs b.records
    + check_answers inputs warm
  in
  let profiled = Hashtbl.create 1024 and cert_failed = ref 0 in
  let replay ~req ~miss rq =
    if not (replay_request inputs ~req ~miss ~profiled rq) then incr cert_failed
  in
  Array.iteri
    (fun i r -> replay ~req:(1_000_000 + i) ~miss:true (r.inst, r.strategy))
    warm;
  Array.iteri
    (fun req r -> replay ~req ~miss:(kind = Miss) (r.inst, r.strategy))
    b.records;
  let used = used_problems inputs (Array.append warm b.records) in
  Array.iter Layers.trace_flat used;
  Trace.write trace_file;
  Out.info "trace   %d spans written to %s" (List.length (Trace.spans ()))
    trace_file;
  let inproc = Trace.per_req_ms inproc_spans in
  let residual_ms =
    Array.mapi
      (fun req r ->
        rtt_ms r -. Option.value ~default:0. (Hashtbl.find_opt inproc req))
      b.records
  in
  let n = Array.length a.records in
  report_split spec b.records residual_ms;
  let gcv k = Option.value ~default:0. (List.assoc_opt k gc) in
  Layers.emit
    {
      tail_q = spec.tail_q;
      server =
        Some
          {
            residual_ms;
            cpu_ms_per_req = 1000. *. (cpu1 -. cpu0) /. float_of_int (max 1 n);
            busy_frac = (cpu1 -. cpu0) /. a.wall_s;
            cache_hit_ratio = hit_ratio;
            cache_evictions = Proc.delta st0 st1 "cache_evictions";
            profile_hit_ratio = profile_ratio;
            frames_rejected = Proc.delta st0 st2 "frames_rejected";
            gc_minor_words_per_req =
              gcv "minor_words"
              /. float_of_int (max 1 (Proc.stat st2 "requests_served"));
            gc_major_collections = gcv "major_collections";
            req_kb =
              Array.map (fun r -> float_of_int r.req_bytes /. 1024.) b.records;
          };
      pool = None;
      race = None;
      dense_row_frac = check_dense spec used;
      certify_failed = !cert_failed;
      overhead_frac = (b.wall_s -. a.wall_s) /. a.wall_s;
    };
  (n + Array.length b.records, failed + !cert_failed)
