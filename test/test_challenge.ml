(* Tests for the synthetic coalescing-challenge pipeline (experiment
   E11): program -> SSA -> spill -> instance, plus the leaderboard. *)

module G = Rc_graph.Graph
module Flat = Rc_graph.Flat
module Chordal = Rc_graph.Chordal
module Challenge = Rc_challenge.Challenge
module Strategies = Rc_core.Strategies
module Coalescing = Rc_core.Coalescing

let check = Alcotest.(check bool)

let test_instance_invariants () =
  List.iter
    (fun k ->
      for seed = 1 to 6 do
        let inst = Challenge.generate ~seed ~k () in
        check "problem validates" true
          (Rc_core.Problem.validate inst.problem = Ok ());
        check "maxlive <= k" true (inst.maxlive <= k);
        check "graph greedy-k-colorable" true
          (Rc_graph.Greedy_k.is_greedy_k_colorable inst.problem.graph k);
        check "program is strict SSA" true
          (Rc_ir.Ssa.is_ssa inst.func && Rc_ir.Ssa.is_strict inst.func)
      done)
    [ 4; 6; 8 ]

let test_deterministic () =
  let a = Challenge.generate ~seed:7 ~k:6 () in
  let b = Challenge.generate ~seed:7 ~k:6 () in
  check "same stats" true
    (Rc_core.Problem.stats a.problem = Rc_core.Problem.stats b.problem);
  check "same graph" true (G.equal a.problem.graph b.problem.graph)

let test_pure_intersection_is_chordal () =
  (* Theorem 1 applies when the Chaitin move refinement is off *)
  for seed = 1 to 8 do
    let inst = Challenge.generate ~seed ~move_aware:false ~k:6 () in
    check "chordal instance" true
      (Rc_graph.Chordal.is_chordal inst.problem.graph)
  done

let test_weights_positive_and_loop_weighted () =
  let inst = Challenge.generate ~seed:11 ~k:6 () in
  check "weights positive" true
    (List.for_all
       (fun (a : Rc_core.Problem.affinity) -> a.weight >= 1)
       inst.problem.affinities)

let test_leaderboard () =
  let instances = Challenge.generate_batch ~seed:20 ~k:6 ~count:3 () in
  let board =
    Challenge.leaderboard
      [
        Strategies.Conservative Rc_core.Conservative.Briggs;
        Strategies.Conservative Rc_core.Conservative.Brute_force;
        Strategies.Optimistic;
      ]
      instances
  in
  check "three rows" true (List.length board = 3);
  (* sorted by decreasing score *)
  let scores = List.map (fun (_, s, _, _) -> s) board in
  check "sorted" true (List.sort (fun a b -> compare b a) scores = scores);
  (* all conservative strategies report conservative *)
  List.iter (fun (_, _, _, cons) -> check "conservative" true cons) board;
  (* brute force should not lose to briggs *)
  let score name =
    match List.find_opt (fun (n, _, _, _) -> n = name) board with
    | Some (_, s, _, _) -> s
    | None -> Alcotest.fail ("missing " ^ name)
  in
  check "brute force >= briggs" true
    (score "conservative/brute-force" >= score "conservative/briggs")

let test_strategies_sound_on_challenge () =
  let inst = Challenge.generate ~seed:33 ~k:6 () in
  List.iter
    (fun s ->
      let sol = Strategies.run s inst.problem in
      check
        (Strategies.name s ^ " sound")
        true
        (Coalescing.check inst.problem sol = Ok ()))
    Strategies.all_heuristics

(* Every named program shape must keep the Theorem 1 regime when the
   Chaitin move refinement is off: the whole Rc_check.Lint stack
   (structure, strict SSA, chordality, omega = Maxlive) passes on the
   generated function, and the derived problem validates.  This is the
   per-preset lockdown promised in Challenge.presets' doc comment. *)
let test_presets_theorem1 () =
  List.iter
    (fun (name, config) ->
      for seed = 1 to 3 do
        let inst = Challenge.generate ~seed ~config ~move_aware:false ~k:6 () in
        (match Rc_check.Lint.check_theorem1 inst.func with
        | [] -> ()
        | v :: _ ->
            Alcotest.failf "preset %s (seed %d): %s" name seed
              (Rc_check.Lint.to_string v));
        check
          (Printf.sprintf "%s validates (seed %d)" name seed)
          true
          (Rc_core.Problem.validate inst.problem = Ok ());
        check
          (Printf.sprintf "%s maxlive <= k (seed %d)" name seed)
          true (inst.maxlive <= 6);
        check
          (Printf.sprintf "%s chordal (seed %d)" name seed)
          true
          (Chordal.is_chordal inst.problem.graph);
        check
          (Printf.sprintf "%s omega = maxlive (seed %d)" name seed)
          true
          (Chordal.omega inst.problem.graph = inst.maxlive)
      done)
    Challenge.presets

(* ------------------------------------------------------------------ *)
(* Challenge-scale synthetic instances                                 *)
(* ------------------------------------------------------------------ *)

(* The synthetic sweep produces interval graphs, so the Theorem 1
   invariants hold by construction — and must hold in the output:
   chordal, omega exactly the live-range pressure, edge count bounded
   by n * maxlive (linear, never quadratic). *)
let test_synthetic_invariants () =
  List.iter
    (fun (n, maxlive) ->
      let inst = Challenge.synthetic ~seed:(n + maxlive) ~n ~maxlive () in
      let g = inst.problem.graph in
      let tag fmt = Printf.sprintf fmt n maxlive in
      check (tag "synthetic %d/%d validates") true
        (Rc_core.Problem.validate inst.problem = Ok ());
      check (tag "synthetic %d/%d chordal") true (Chordal.is_chordal g);
      check (tag "synthetic %d/%d omega = maxlive") true
        (Chordal.omega g = inst.maxlive);
      check (tag "synthetic %d/%d linear edge bound") true
        (G.num_edges g <= n * inst.maxlive);
      check (tag "synthetic %d/%d greedy-maxlive-colorable") true
        (Rc_graph.Greedy_k.is_greedy_k_colorable g inst.maxlive);
      check (tag "synthetic %d/%d affinities realizable") true
        (List.for_all
           (fun (a : Rc_core.Problem.affinity) -> not (G.mem_edge g a.u a.v))
           inst.problem.affinities))
    [ (60, 4); (200, 8); (500, 3); (40, 40) ]

(* The flat streaming path (add_new_edge bulk load, no membership
   probes) must build the same graph as the persistent path, under
   every row form: the kernel's default promotion degree, int rows only
   and bitset rows only. *)
let test_synthetic_flat_agrees () =
  let n = 2000 and maxlive = 7 in
  let inst = Challenge.synthetic ~seed:42 ~n ~maxlive () in
  List.iter
    (fun (name, promote_at) ->
      let f = Flat.create ?promote_at n in
      Challenge.synthetic_stream ~seed:42 ~n ~maxlive
        ~edge:(fun u v -> Flat.add_new_edge f u v)
        ~affinity:(fun _ _ _ -> ())
        ();
      check
        (Printf.sprintf "flat stream (%s) = persistent stream" name)
        true
        (G.equal (Flat.to_graph f) inst.problem.graph))
    [ ("auto", None); ("sparse-rows", Some max_int); ("bitset-rows", Some 0) ]

(* Batagelj–Brandes streaming G(n,p): every emitted edge well-formed
   and duplicate-free, with the edge count near its expectation — the
   generator bench K3 trusts for its density sweep. *)
let test_gnp_stream_sane () =
  let rng = Random.State.make [| 77 |] in
  let n = 3000 and p = 0.01 in
  let seen = Hashtbl.create 4096 in
  let count = ref 0 in
  Rc_graph.Generators.gnp_stream rng ~n ~p (fun u v ->
      if not (0 <= u && u < v && v < n) then
        Alcotest.failf "gnp_stream emitted (%d, %d)" u v;
      let key = (u * n) + v in
      if Hashtbl.mem seen key then
        Alcotest.failf "gnp_stream duplicated (%d, %d)" u v;
      Hashtbl.add seen key ();
      incr count);
  let expected = p *. float_of_int (n * (n - 1) / 2) in
  let c = float_of_int !count in
  check "gnp_stream edge count near expectation" true
    (c > 0.8 *. expected && c < 1.2 *. expected)

(* Allocation regression: the streaming generator must not materialize
   any quadratic intermediate.  Quadrupling n must not blow the
   allocated-bytes delta past ~4x (a quadratic structure would show
   ~16x); the slack covers rng boxing and GC noise. *)
(* [Gc.allocated_bytes] over-reports by a minor-heap quantum whenever a
   minor collection lands inside the measured region, so each size is
   measured from an empty minor heap and the minimum of three trials is
   kept — the clean trials bound the real allocation. *)
let stream_alloc_bytes ~n =
  let edges = ref 0 in
  let best = ref infinity in
  for _ = 1 to 3 do
    edges := 0;
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    Challenge.synthetic_stream ~seed:3 ~n ~maxlive:6
      ~edge:(fun _ _ -> incr edges)
      ~affinity:(fun _ _ _ -> ())
      ();
    let after = Gc.allocated_bytes () in
    if after -. before < !best then best := after -. before
  done;
  (!best, !edges)

let test_stream_allocation_linear () =
  ignore (stream_alloc_bytes ~n:1000);
  let d20, e20 = stream_alloc_bytes ~n:20_000 in
  let d80, e80 = stream_alloc_bytes ~n:80_000 in
  check "streamed edge count linear" true (e80 < 5 * e20);
  let ratio = (d80 +. 65536.) /. (d20 +. 65536.) in
  check
    (Printf.sprintf "allocation ratio %.2f (%.0f -> %.0f bytes) linear" ratio
       d20 d80)
    true (ratio < 8.0)

(* ------------------------------------------------------------------ *)
(* Instance I/O                                                        *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip () =
  let inst = Challenge.generate ~seed:5 ~k:5 () in
  let text = Rc_challenge.Instance_io.print inst.problem in
  match Rc_challenge.Instance_io.parse text with
  | Error m -> Alcotest.fail m
  | Ok p ->
      check "graph preserved" true (G.equal p.graph inst.problem.graph);
      check "k preserved" true (p.k = inst.problem.k);
      check "affinities preserved" true (p.affinities = inst.problem.affinities)

let test_io_format () =
  let text = "# demo\nk 3\nv 9\ne 0 1\na 0 2 7\na 1 2\n" in
  match Rc_challenge.Instance_io.parse text with
  | Error m -> Alcotest.fail m
  | Ok p ->
      check "k" true (p.k = 3);
      check "isolated vertex kept" true (G.mem_vertex p.graph 9);
      check "edge" true (G.mem_edge p.graph 0 1);
      check "weights" true
        (List.exists
           (fun (a : Rc_core.Problem.affinity) ->
             a.u = 0 && a.v = 2 && a.weight = 7)
           p.affinities
        && List.exists
             (fun (a : Rc_core.Problem.affinity) ->
               a.u = 1 && a.v = 2 && a.weight = 1)
             p.affinities)

let test_io_rejects () =
  let expect_error text =
    match Rc_challenge.Instance_io.parse text with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "accepted malformed input: %S" text
  in
  List.iter expect_error
    [
      "e 0 1\n" (* missing k *);
      "k 0\n" (* non-positive k *);
      "k 2\nk 3\n" (* duplicate k *);
      "k 2\ne 1 1\n" (* self-loop *);
      "k 2\na 0 1 -2\n" (* negative weight *);
      "k 2\nq 1 2\n" (* unknown directive *);
      "k 2\ne 0 x\n" (* bad integer *);
      "k 2\ne 0 1\na 0 1 2 3 4\n" (* arity *);
    ]

let test_io_file_roundtrip () =
  let inst = Challenge.generate ~seed:6 ~k:4 () in
  let path = Filename.temp_file "rc_instance" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rc_challenge.Instance_io.write_file path inst.problem;
      match Rc_challenge.Instance_io.read_file path with
      | Error m -> Alcotest.fail m
      | Ok p -> check "file roundtrip" true (G.equal p.graph inst.problem.graph))

(* The challenge-scale round trip: a 10^5-vertex synthetic instance
   survives write -> read -> validate with full structural equality.
   This is the scale the adaptive kernel exists for; the text format
   and parser must keep up (both are single-pass and line-based). *)
let test_io_roundtrip_scaled () =
  let n = 100_000 in
  let inst = Challenge.synthetic ~seed:9 ~n ~maxlive:6 () in
  check "scaled instance validates" true
    (Rc_core.Problem.validate inst.problem = Ok ());
  let path = Filename.temp_file "rc_instance_scale" ".txt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Rc_challenge.Instance_io.write_file path inst.problem;
      match Rc_challenge.Instance_io.read_file path with
      | Error m -> Alcotest.fail m
      | Ok p ->
          check "k preserved at 10^5" true (p.k = inst.problem.k);
          check "graph preserved at 10^5" true
            (G.equal p.graph inst.problem.graph);
          check "affinities preserved at 10^5" true
            (p.affinities = inst.problem.affinities);
          check "parsed instance validates" true
            (Rc_core.Problem.validate p = Ok ()))

let prop_io_roundtrip =
  QCheck.Test.make ~name:"print/parse roundtrip on random instances" ~count:25
    QCheck.small_nat (fun seed ->
      let inst = Challenge.generate ~seed:(1 + seed) ~k:5 () in
      match
        Rc_challenge.Instance_io.parse
          (Rc_challenge.Instance_io.print inst.problem)
      with
      | Ok p ->
          G.equal p.graph inst.problem.graph
          && p.k = inst.problem.k
          && p.affinities = inst.problem.affinities
      | Error _ -> false)

let () =
  Alcotest.run "rc_challenge"
    [
      ( "pipeline",
        [
          Alcotest.test_case "instance invariants" `Slow test_instance_invariants;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "pure intersection chordal" `Quick
            test_pure_intersection_is_chordal;
          Alcotest.test_case "weights" `Quick test_weights_positive_and_loop_weighted;
          Alcotest.test_case "presets keep Theorem 1 (all presets, 3 seeds)"
            `Slow test_presets_theorem1;
        ] );
      ( "scale",
        [
          Alcotest.test_case "synthetic invariants" `Quick
            test_synthetic_invariants;
          Alcotest.test_case "flat stream = persistent stream" `Quick
            test_synthetic_flat_agrees;
          Alcotest.test_case "gnp_stream well-formed" `Quick
            test_gnp_stream_sane;
          Alcotest.test_case "streaming allocates linearly" `Quick
            test_stream_allocation_linear;
          Alcotest.test_case "10^5-vertex io roundtrip" `Slow
            test_io_roundtrip_scaled;
        ] );
      ( "evaluation",
        [
          Alcotest.test_case "leaderboard" `Slow test_leaderboard;
          Alcotest.test_case "strategies sound" `Slow
            test_strategies_sound_on_challenge;
        ] );
      ( "instance_io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "format" `Quick test_io_format;
          Alcotest.test_case "malformed rejected" `Quick test_io_rejects;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_io_roundtrip ] );
    ]
