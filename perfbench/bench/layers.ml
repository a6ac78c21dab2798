(* The per-layer metrics of a traced run, in one fixed list for every
   workload.  A layer absent from a workload's path reports 0 there:
   the prediction for it is "unchanged". *)

module Strategies = Rc_core.Strategies
module Problem = Rc_core.Problem
module Certify = Rc_check.Certify
module Flat = Rc_graph.Flat
module Greedy_k = Rc_graph.Greedy_k

(* What an answer claims, as the server certifies it: IRC may spill and
   aggressive ignores colorability, so only the other strategies claim
   conservativeness. *)
let claims = function
  | Strategies.Aggressive | Strategies.Irc _ -> []
  | _ -> [ Certify.Conservative ]

(* Σ dense rows / Σ rows of the instances' flat kernels under the
   default (adaptive) row policy. *)
let dense_row_frac problems =
  let d = ref 0 and n = ref 0 in
  Array.iter
    (fun (p : Problem.t) ->
      let f = Flat.of_graph p.graph in
      d := !d + Flat.dense_rows f;
      n := !n + Flat.capacity f)
    problems;
  if !n = 0 then 0. else float_of_int !d /. float_of_int !n

(* Flat kernel build and greedy-k test, traced once per instance. *)
let trace_flat (p : Problem.t) =
  let f = Trace.with_span "flat.of_graph" (fun () -> Flat.of_graph p.graph) in
  ignore
    (Trace.with_span "greedy_k.flat_is_greedy_k_colorable" (fun () ->
         Greedy_k.flat_is_greedy_k_colorable f p.k))

let heuristic_ms : (string, float) Hashtbl.t = Hashtbl.create 16

let note_heuristic s ms =
  let k = Strategies.name s in
  Hashtbl.replace heuristic_ms k
    (ms +. Option.value ~default:0. (Hashtbl.find_opt heuristic_ms k))

(* [strategies.<name>.ms_total] with "/" -> "." and "+" -> "_". *)
let heuristic_metric s =
  "strategies."
  ^ String.map (function '/' -> '.' | '+' -> '_' | c -> c) (Strategies.name s)
  ^ ".ms_total"

type server = {
  residual_ms : float array;  (** round trip minus in-process spans *)
  cpu_ms_per_req : float;
  busy_frac : float;
  cache_hit_ratio : float;
  cache_evictions : int;
  profile_hit_ratio : float;
  frames_rejected : int;
  gc_minor_words_per_req : float;
  gc_major_collections : float;
  req_kb : float array;
}

type pool = {
  pool_busy_frac : float;
  idle_s : float;
  prefix_s : float;
  cell_ms : float array;
}

type race = {
  race_ms : float;
  races_run : int;
  wins_pb : int;
  wins_bb : int;
  losers_cancelled : int;
  cancel_latency_ms_max : float;
}

type t = {
  tail_q : float;
  server : server option;
  pool : pool option;
  race : race option;
  dense_row_frac : float;
  certify_failed : int;
  overhead_frac : float;
      (** traced minus untraced wall time of the same work, as a share
          of the untraced *)
}

let emit t =
  let q = t.tail_q in
  let m = Out.metric in
  let count name n = m name "count" (float_of_int n) in
  let pct a q = Stats.pct a q in
  let s =
    match t.server with
    | Some s -> s
    | None ->
        {
          residual_ms = [||]; cpu_ms_per_req = 0.; busy_frac = 0.;
          cache_hit_ratio = 0.; cache_evictions = 0; profile_hit_ratio = 0.;
          frames_rejected = 0; gc_minor_words_per_req = 0.;
          gc_major_collections = 0.; req_kb = [||];
        }
  in
  m "server.residual_ms_p50" "ms" (pct s.residual_ms 50.);
  m "server.residual_ms_tail" "ms" (pct s.residual_ms q);
  m "server.cpu_ms_per_req" "ms" s.cpu_ms_per_req;
  m "server.busy_frac" "frac" s.busy_frac;
  m "server.cache_hit_ratio" "frac" s.cache_hit_ratio;
  count "server.cache_evictions" s.cache_evictions;
  m "server.profile_hit_ratio" "frac" s.profile_hit_ratio;
  count "server.frames_rejected" s.frames_rejected;
  m "server.gc_minor_words_per_req" "words" s.gc_minor_words_per_req;
  m "server.gc_major_collections" "count" s.gc_major_collections;
  let decode = Trace.ms "instance_io.of_binary"
  and hash = Trace.ms "instance_io.canonical_hash" in
  m "instance_io.decode_ms_p50" "ms" (pct decode 50.);
  m "instance_io.decode_ms_tail" "ms" (pct decode q);
  m "instance_io.hash_ms_p50" "ms" (pct hash 50.);
  m "instance_io.hash_ms_tail" "ms" (pct hash q);
  m "instance_io.alloc_kw_per_req" "kwords"
    (if decode = [||] then 0.
     else
       (Stats.sum (Trace.kw "instance_io.of_binary")
       +. Stats.sum (Trace.kw "instance_io.canonical_hash"))
       /. float_of_int (Array.length decode));
  m "instance_io.req_kb_p50" "KiB" (pct s.req_kb 50.);
  m "instance_io.req_kb_tail" "KiB" (pct s.req_kb q);
  let prof = Trace.ms "profile.analyze" in
  m "profile.ms_p50" "ms" (pct prof 50.);
  m "profile.ms_tail" "ms" (pct prof q);
  m "profile.alloc_kw_p50" "kwords" (pct (Trace.kw "profile.analyze") 50.);
  let solve_spans = [ "strategies.run_cfg"; "strategies.evaluate_cfg" ] in
  let solve = Array.concat (List.map Trace.ms solve_spans) in
  m "strategies.solve_ms_p50" "ms" (pct solve 50.);
  m "strategies.solve_ms_tail" "ms" (pct solve q);
  m "strategies.alloc_kw_p50" "kwords" (pct (Array.concat (List.map Trace.kw solve_spans)) 50.);
  m "strategies.render_ms_p50" "ms" (pct (Trace.ms "strategies.render") 50.);
  List.iter
    (fun h ->
      m (heuristic_metric h) "ms"
        (Option.value ~default:0.
           (Hashtbl.find_opt heuristic_ms (Strategies.name h))))
    Strategies.all_heuristics;
  m "flat.of_graph_ms_p50" "ms" (pct (Trace.ms "flat.of_graph") 50.);
  m "flat.dense_row_frac" "frac" t.dense_row_frac;
  m "greedy_k.flat_test_ms_p50" "ms"
    (pct (Trace.ms "greedy_k.flat_is_greedy_k_colorable") 50.);
  let cert = Trace.ms "certify.certify_solution" in
  m "certify.ms_p50" "ms" (pct cert 50.);
  m "certify.ms_tail" "ms" (pct cert q);
  m "certify.alloc_kw_p50" "kwords" (pct (Trace.kw "certify.certify_solution") 50.);
  count "certify.failed" t.certify_failed;
  let r =
    match t.race with
    | Some r -> r
    | None ->
        { race_ms = 0.; races_run = 0; wins_pb = 0; wins_bb = 0;
          losers_cancelled = 0; cancel_latency_ms_max = 0. }
  in
  m "portfolio.race_ms" "ms" r.race_ms;
  count "portfolio.races_run" r.races_run;
  count "portfolio.wins_pb" r.wins_pb;
  count "portfolio.wins_bb" r.wins_bb;
  count "portfolio.losers_cancelled" r.losers_cancelled;
  m "portfolio.cancel_latency_ms_max" "ms" r.cancel_latency_ms_max;
  let p =
    match t.pool with
    | Some p -> p
    | None -> { pool_busy_frac = 0.; idle_s = 0.; prefix_s = 0.; cell_ms = [||] }
  in
  m "pool.busy_frac" "frac" p.pool_busy_frac;
  m "pool.idle_s" "s" p.idle_s;
  m "sweep.prefix_s" "s" p.prefix_s;
  m "sweep.cell_ms_p50" "ms" (pct p.cell_ms 50.);
  m "sweep.cell_ms_max" "ms" (Stats.max_ p.cell_ms);
  m "trace.overhead_frac" "frac" t.overhead_frac
