module IMap = Rc_graph.Graph.IMap
module ISet = Rc_graph.Graph.ISet
module Ir = Rc_ir.Ir

type instance = {
  problem : Rc_core.Problem.t;
  func : Ir.func;
  maxlive : int;
}

(* Loop nesting depth per block: natural loops of back edges (a, b)
   where b dominates a. *)
let loop_depths (f : Ir.func) =
  let dom = Rc_ir.Dominance.compute f in
  let preds = Rc_ir.Cfg.predecessors f in
  let preds_of l =
    match IMap.find_opt l preds with Some p -> p | None -> []
  in
  let back_edges =
    IMap.fold
      (fun a (b : Ir.block) acc ->
        List.fold_left
          (fun acc s ->
            if Rc_ir.Dominance.dominates dom s a then (a, s) :: acc else acc)
          acc b.succs)
      f.blocks []
  in
  let natural_loop (a, header) =
    let rec grow body = function
      | [] -> body
      | l :: rest ->
          if ISet.mem l body then grow body rest
          else grow (ISet.add l body) (preds_of l @ rest)
    in
    grow (ISet.singleton header) [ a ]
  in
  List.fold_left
    (fun depths be ->
      ISet.fold
        (fun l m ->
          IMap.add l (1 + match IMap.find_opt l m with Some d -> d | None -> 0) m)
        (natural_loop be) depths)
    IMap.empty back_edges

let generate ~seed ?(config = Rc_ir.Randprog.default_config)
    ?(move_aware = true) ~k () =
  let rng = Random.State.make [| seed; 0x5eed |] in
  let prog = Rc_ir.Randprog.generate rng config in
  let ssa = Rc_ir.Ssa.construct prog in
  let spilled = Rc_ir.Spill.spill_everywhere ssa ~k in
  let live = Rc_ir.Liveness.compute spilled in
  let maxlive = Rc_ir.Liveness.maxlive spilled live in
  let graph = Rc_ir.Interference.build ~move_aware spilled in
  let depths = loop_depths spilled in
  let weights l =
    let d = match IMap.find_opt l depths with Some d -> d | None -> 0 in
    let rec pow10 n = if n <= 0 then 1 else 10 * pow10 (n - 1) in
    pow10 (min d 3)
  in
  let affinities = Rc_ir.Interference.affinities ~weights spilled in
  let problem = Rc_core.Problem.make ~graph ~affinities ~k in
  { problem; func = spilled; maxlive }

let generate_batch ~seed ?config ?move_aware ~k ~count () =
  List.init count (fun i -> generate ~seed:(seed + i) ?config ?move_aware ~k ())

(* Named program shapes for the pipeline generator, from the smallest
   smoke-test programs to wide high-pressure ones.  Every preset keeps
   the Theorem 1 invariants (chordal interference, omega <= Maxlive)
   when generated with [move_aware:false] — test_challenge locks that
   down per preset via Rc_check.Lint. *)
let presets : (string * Rc_ir.Randprog.config) list =
  [
    ( "tiny",
      {
        params = 2;
        depth = 1;
        regions = 1;
        instrs_per_block = 3;
        move_fraction = 0.2;
        redefine_fraction = 0.2;
      } );
    ("default", Rc_ir.Randprog.default_config);
    ( "branchy",
      {
        params = 3;
        depth = 5;
        regions = 2;
        instrs_per_block = 3;
        move_fraction = 0.25;
        redefine_fraction = 0.4;
      } );
    ( "loopy",
      {
        params = 2;
        depth = 4;
        regions = 2;
        instrs_per_block = 4;
        move_fraction = 0.3;
        redefine_fraction = 0.5;
      } );
    ( "wide",
      {
        params = 6;
        depth = 2;
        regions = 5;
        instrs_per_block = 8;
        move_fraction = 0.35;
        redefine_fraction = 0.3;
      } );
  ]

(* ------------------------------------------------------------------ *)
(* Challenge-scale synthetic instances                                 *)
(* ------------------------------------------------------------------ *)

(* The SSA pipeline above tops out around 10^3 vertices (SSA
   construction and liveness are the bottleneck).  The synthetic
   generator below models just the live-range structure the pipeline
   would produce: a left-to-right sweep where virtual register [v] is
   born at step [v] into a pool of at most [maxlive] live ranges,
   evicting a random one when full.  Each range is live over one
   contiguous interval of steps, so the graph is an interval graph —
   chordal, with omega equal to the largest pool ever reached — exactly
   the Theorem 1 regime, delivered in O(n * maxlive) streamed edges
   with no quadratic intermediate. *)

let synthetic_stream ~seed ~n ~maxlive ?(affinity_fraction = 0.3) ~edge
    ~affinity () =
  if n < 0 then invalid_arg "Challenge.synthetic_stream: negative size";
  if maxlive < 1 then invalid_arg "Challenge.synthetic_stream: maxlive < 1";
  let rng = Random.State.make [| seed; 0xC0A1 |] in
  let pool = Array.make (max 1 (min n maxlive)) 0 in
  let psize = ref 0 in
  for v = 0 to n - 1 do
    if !psize = maxlive then begin
      let i = Random.State.int rng !psize in
      let dying = pool.(i) in
      pool.(i) <- pool.(!psize - 1);
      decr psize;
      (* A range dying exactly where [v] starts is the shape of a move
         boundary: the two never interfere, so the affinity is always
         realizable in principle. *)
      if Random.State.float rng 1.0 < affinity_fraction then
        affinity dying v (1 + Random.State.int rng 9)
    end;
    for i = 0 to !psize - 1 do
      edge pool.(i) v
    done;
    pool.(!psize) <- v;
    incr psize
  done

type synthetic_instance = { problem : Rc_core.Problem.t; maxlive : int }

let synthetic ~seed ~n ~maxlive ?affinity_fraction ?k () =
  let g = ref Rc_graph.Graph.empty in
  for v = 0 to n - 1 do
    g := Rc_graph.Graph.add_vertex !g v
  done;
  let affs = ref [] in
  synthetic_stream ~seed ~n ~maxlive ?affinity_fraction
    ~edge:(fun u v -> g := Rc_graph.Graph.add_edge !g u v)
    ~affinity:(fun u v w -> affs := ((u, v), w) :: !affs)
    ();
  let maxlive = min n maxlive in
  let k = match k with Some k -> k | None -> max 1 maxlive in
  { problem = Rc_core.Problem.make ~graph:!g ~affinities:!affs ~k; maxlive }

(* Many independent synthetic gadgets in one instance: gadget [g] is a
   [size]-vertex interval sweep on its own vertex range [g*size ..
   g*size + size - 1] and its own derived seed.  No edge or affinity
   ever crosses gadgets, so the interference ∪ affinity union graph
   decomposes into [gadgets] components of at most [size] vertices —
   the regime where exact portfolio racing reaches 10^4-vertex
   instances that are hopeless as one search. *)
let clustered ~seed ~gadgets ~size ~maxlive ?affinity_fraction ?k () =
  if gadgets < 0 then invalid_arg "Challenge.clustered: negative gadget count";
  if size < 0 then invalid_arg "Challenge.clustered: negative gadget size";
  let n = gadgets * size in
  let g = ref Rc_graph.Graph.empty in
  for v = 0 to n - 1 do
    g := Rc_graph.Graph.add_vertex !g v
  done;
  let affs = ref [] in
  for gi = 0 to gadgets - 1 do
    let base = gi * size in
    synthetic_stream
      ~seed:(Hashtbl.hash (seed, 0xC1A5, gi))
      ~n:size ~maxlive ?affinity_fraction
      ~edge:(fun u v -> g := Rc_graph.Graph.add_edge !g (base + u) (base + v))
      ~affinity:(fun u v w -> affs := ((base + u, base + v), w) :: !affs)
      ()
  done;
  let maxlive = min size maxlive in
  let k = match k with Some k -> k | None -> max 1 maxlive in
  { problem = Rc_core.Problem.make ~graph:!g ~affinities:!affs ~k; maxlive }

let leaderboard strategies instances =
  let score strategy =
    let reports =
      List.map
        (fun (inst : instance) ->
          Rc_core.Strategies.evaluate strategy inst.problem)
        instances
    in
    let fractions =
      List.map
        (fun (r : Rc_core.Strategies.report) ->
          if r.total_weight = 0 then 1.0
          else float_of_int r.coalesced_weight /. float_of_int r.total_weight)
        reports
    in
    let avg =
      List.fold_left ( +. ) 0.0 fractions
      /. float_of_int (max 1 (List.length fractions))
    in
    let time =
      List.fold_left
        (fun acc (r : Rc_core.Strategies.report) -> acc +. r.time_s)
        0.0 reports
    in
    let all_conservative =
      List.for_all (fun (r : Rc_core.Strategies.report) -> r.conservative) reports
    in
    (Rc_core.Strategies.name strategy, avg, time, all_conservative)
  in
  List.map score strategies
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)
