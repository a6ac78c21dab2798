(* sweep-10k: a leaderboard batch on one shared pool at nproc domains —
   the shipped 10k preset under the ten heuristics whose scale ceilings
   admit 10^4 vertices, then exact:race over a clustered-only preset. *)

module Strategies = Rc_core.Strategies
module Problem = Rc_core.Problem
module Sweep = Rc_engine.Sweep
module Pool = Rc_engine.Pool
module Sanitize = Rc_check.Sanitize
module Profile = Rc_analysis.Profile

let heuristics =
  List.filter (fun s -> Sweep.scale_ceiling s >= 10_000) Strategies.all_heuristics

let race = Strategies.Exact_backend "race"

(* Per-cell latency; with 31 cells a repetition, p80 keeps at least ten
   samples beyond it from two repetitions on. *)
let tail_q = 80.

let now = Rc_core.Mclock.now_s

(* Create the pool [setups] times (shutting all but the last down);
   [setup_s] is the median creation time. *)
let set_up ~setups =
  let domains = Pool.recommended_domains () in
  let rec go k acc =
    let t0 = now () in
    let pool = Pool.create ~domains in
    let s = now () -. t0 in
    if k + 1 < setups then begin
      Pool.shutdown pool;
      go (k + 1) (s :: acc)
    end
    else (pool, Stats.median (Array.of_list (s :: acc)))
  in
  go 0 []

type rep = { cells : Sweep.cell array; wall_s : float }

let repetition pool ~seed (p10k, pclust) =
  let a = Sweep.run ~pool ~strategies:heuristics ~seed p10k in
  let b = Sweep.run ~pool ~strategies:[ race ] ~seed pclust in
  { cells = Array.append a.cells b.cells; wall_s = a.wall_s +. b.wall_s }

(* Every cell must be a report whose conservative claim holds; capped or
   refused cells are failures too.  [corrupt] (1-based) flips one
   cell's claim on purpose, for the self-test. *)
let check_cells ?(corrupt = 0) (cells : Sweep.cell array) =
  let failed = ref 0 and capped = ref 0 in
  Array.iteri
    (fun i (c : Sweep.cell) ->
      match c.outcome with
      | Sweep.Report r ->
          let conservative = if i + 1 = corrupt then false else r.conservative in
          let claimed =
            match Strategies.of_string c.strategy with
            | Ok st -> Layers.claims st <> []
            | Error _ -> true
          in
          if claimed && not conservative then begin
            incr failed;
            Out.info "failure cell %d %s #%d: conservative claim does not hold" i
              c.strategy c.instance
          end
      | Sweep.Capped _ | Sweep.Failed _ ->
          incr failed;
          incr capped;
          Out.info "failure cell %d %s #%d: capped or refused" i c.strategy
            c.instance)
    cells;
  (!failed, !capped)

(* The coalesced share of affinity weight, averaged over the cells. *)
let weight_frac (cells : Sweep.cell array) =
  Stats.mean
    (Array.of_list
       (List.filter_map
          (fun (c : Sweep.cell) ->
            match c.outcome with
            | Sweep.Report r -> Some (Stats.fraction r.coalesced_weight r.total_weight)
            | _ -> None)
          (Array.to_list cells)))

let cell_ms (cells : Sweep.cell array) =
  Array.of_list
    (List.filter_map
       (fun (c : Sweep.cell) ->
         match c.outcome with
         | Sweep.Report r -> Some (1000. *. r.time_s)
         | _ -> None)
       (Array.to_list cells))

let instances ~seed (p10k, pclust) =
  Array.append
    (Sweep.instance_problems ~seed p10k)
    (Sweep.instance_problems ~seed pclust)

let check_dense f =
  Out.check "sweep-10k.flat.dense_row_frac=0" (f = 0.) (Printf.sprintf "%.3f" f)

let run ~seed ~seconds ~scale ~corrupt =
  let presets = Corpus.sweep_presets scale in
  Proc.wait_quiet ~max_s:(Serve_wl.quiet_wait scale);
  let pool, setup_s = set_up ~setups:25 in
  let reps = ref [] and wall = ref 0. and host0 = Proc.host_cpu () in
  while !wall < seconds do
    let r = repetition pool ~seed presets in
    reps := r :: !reps;
    wall := !wall +. r.wall_s
  done;
  Proc.report_steal host0;
  Pool.shutdown pool;
  let rss = Proc.vm_hwm_mb (Unix.getpid ()) in
  let cells = Array.concat (List.rev_map (fun r -> r.cells) !reps) in
  let n = Array.length cells in
  Out.info "phase   %d repetitions, %d cells in %.2f s" (List.length !reps) n !wall;
  let failed, capped = check_cells ~corrupt cells in
  Out.check "sweep-10k.no_capped_or_refused_cells" (capped = 0)
    (Printf.sprintf "%d of %d" capped n);
  check_dense (Layers.dense_row_frac (instances ~seed presets));
  let lat = Stats.sorted (cell_ms cells) in
  let nl = Array.length lat in
  Out.check "sweep-10k.tail_samples>=10"
    (Stats.beyond nl tail_q >= 10)
    (Printf.sprintf "p%g of %d samples, %d beyond" tail_q nl
       (Stats.beyond nl tail_q));
  Out.info "tail    latency_tail_ms is p%g over %d cell samples (%d beyond)"
    tail_q nl (Stats.beyond nl tail_q);
  Out.metric "setup_s" "s" setup_s;
  Out.metric "latency_p50_ms" "ms" (Stats.pct_sorted lat 50.);
  Out.metric "latency_tail_ms" "ms" (Stats.pct_sorted lat tail_q);
  Out.metric "throughput_rps" "1/s"
    (Stats.median
       (Array.of_list
          (List.map
             (fun r -> float_of_int (Array.length r.cells) /. r.wall_s)
             !reps)));
  Out.metric "weight_coalesced_frac" "frac" (weight_frac cells);
  Out.metric "peak_rss_mb" "MiB" rss;
  Out.info "metric %-40s %.6g %s" "failed_frac"
    (float_of_int failed /. float_of_int n)
    "frac";
  (n, failed)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)
(* ------------------------------------------------------------------ *)

(* The cells of one Pool.run, each timed on its own domain; the spans
   are added after the join, parented to a span covering the run. *)
let traced_cells pool ~seed ~first ~problems ~strategies =
  let tasks = List.length strategies * Array.length problems in
  let strategies = Array.of_list strategies in
  let ni = Array.length problems in
  let t0 = Trace.now () in
  let timed =
    Pool.run pool ~tasks (fun i ->
        let s = strategies.(i / ni) and p = problems.(i mod ni) in
        let w0 = Gc.minor_words () in
        let c0 = Trace.now () in
        let r =
          Strategies.evaluate_cfg { Strategies.default_config with seed } s p
        in
        (s, r, c0, Trace.now (), Gc.minor_words () -. w0))
  in
  let t1 = Trace.now () in
  let parent = Trace.add "pool.run" t0 t1 in
  let name s = if s = race then "portfolio.race" else "strategies.evaluate_cfg" in
  Array.iteri
    (fun i (s, _, c0, c1, alloc_w) ->
      ignore (Trace.add ~req:(first + i) ~parent ~alloc_w (name s) c0 c1);
      if s <> race then
        Layers.note_heuristic s (Int64.to_float (Int64.sub c1 c0) /. 1e6))
    timed;
  (timed, Int64.to_float (Int64.sub t1 t0) /. 1e9)

let traced ~seed ~scale ~trace_file =
  let ((p10k, pclust) as presets) = Corpus.sweep_presets scale in
  let pool, _ = set_up ~setups:1 in
  let domains = Pool.domains pool in
  (* Untraced: one repetition through Sweep.run. *)
  let host0 = Proc.host_cpu () in
  let a = repetition pool ~seed presets in
  let failed_a, capped = check_cells a.cells in
  Out.check "sweep-10k.no_capped_or_refused_cells" (capped = 0)
    (Printf.sprintf "%d of %d" capped (Array.length a.cells));
  (* Traced: the same repetition replayed from its public pieces. *)
  let t0 = now () in
  let build preset =
    Trace.with_span "sweep.instance_problems" (fun () ->
        Sweep.instance_problems ~seed preset)
  in
  let profile problems =
    Array.iter
      (fun p -> ignore (Trace.with_span "profile.analyze" (fun () -> Profile.analyze p)))
      problems
  in
  let heur = build p10k in
  profile heur;
  let prefix_a = now () -. t0 in
  let cells_h, make_h =
    traced_cells pool ~seed ~first:0 ~problems:heur ~strategies:heuristics
  in
  let prefix1 = now () in
  let clust = build pclust in
  profile clust;
  let prefix_b = now () -. prefix1 in
  let races0 = Sanitize.races_run ()
  and wins0 = Sanitize.race_wins ()
  and cancelled0 = Sanitize.race_losers_cancelled () in
  let cells_r, make_r =
    traced_cells pool ~seed ~first:(Array.length cells_h) ~problems:clust
      ~strategies:[ race ]
  in
  let traced_wall = now () -. t0 in
  Proc.report_steal host0;
  Pool.shutdown pool;
  let all = Array.append cells_h cells_r in
  let dur (_, _, c0, c1, _) = Int64.to_float (Int64.sub c1 c0) /. 1e6 in
  let cell_ms = Array.map dur all in
  let failed_b =
    Array.fold_left
      (fun acc (s, (r : Strategies.report), _, _, _) ->
        if Layers.claims s <> [] && not r.conservative then
          acc + 1
        else acc)
      0 all
  in
  Array.iter Layers.trace_flat (Array.append heur clust);
  Trace.write trace_file;
  Out.info "trace   %d spans written to %s" (List.length (Trace.spans ()))
    trace_file;
  let wins b =
    Option.value ~default:0 (List.assoc_opt b (Sanitize.race_wins ()))
    - Option.value ~default:0 (List.assoc_opt b wins0)
  in
  let makespan = make_h +. make_r in
  let busy = Stats.sum cell_ms /. 1000. in
  let dense = Layers.dense_row_frac (Array.append heur clust) in
  check_dense dense;
  Layers.emit
    {
      tail_q;
      server = None;
      pool =
        Some
          {
            pool_busy_frac = busy /. (float_of_int domains *. makespan);
            idle_s = (float_of_int domains *. makespan) -. busy;
            prefix_s = prefix_a +. prefix_b;
            cell_ms;
          };
      race =
        Some
          {
            race_ms = Stats.sum (Array.map dur cells_r);
            races_run = Sanitize.races_run () - races0;
            wins_pb = wins "pb";
            wins_bb = wins "bb";
            losers_cancelled = Sanitize.race_losers_cancelled () - cancelled0;
            cancel_latency_ms_max =
              float_of_int (Sanitize.race_worst_cancel_latency_ns ()) /. 1e6;
          };
      dense_row_frac = dense;
      certify_failed = 0;
      overhead_frac = (traced_wall -. a.wall_s) /. a.wall_s;
    };
  (Array.length a.cells + Array.length all, failed_a + failed_b)
