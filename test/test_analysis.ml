(* The static-analysis layer: structural analyzers, interval
   recognition, certified presolve + lift, the endpoint walk and the
   Static_profile dispatcher.

   The presolve differential is the satellite contract: 200 seeds,
   solve(original) vs lift(solve(presolve(original))), certified and
   cost-identical, at 1 and 4 domains.
   Split-only presolve is trajectory-preserving for the local-rule
   strategies (component split keeps every neighborhood intact;
   articulation split only cuts at affinity-free vertices of degree
   < k, which no significance count ever sees), so cost equality is
   asserted strategy-by-strategy.  Full presolve preserves the optimum
   only, so its cost-identity pin runs against [Exact]. *)

module G = Rc_graph.Graph
module Flat = Rc_graph.Flat
module Generators = Rc_graph.Generators
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Strategies = Rc_core.Strategies
module Conservative = Rc_core.Conservative
module Exact = Rc_core.Exact
module Certify = Rc_check.Certify
module Structure = Rc_analysis.Structure
module Profile = Rc_analysis.Profile
module Presolve = Rc_analysis.Presolve
module Interval_walk = Rc_analysis.Interval_walk
module Dispatch = Rc_analysis.Dispatch
module Pool = Rc_engine.Pool
module Io = Rc_challenge.Instance_io

let flat_of g = Flat.of_graph g

(* ------------------------------------------------------------------ *)
(* Structure                                                           *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let g = G.union (G.path 4) (G.map_vertices (fun v -> v + 10) (G.clique 3)) in
  let _, count = Structure.components (flat_of g) in
  Alcotest.(check int) "two components" 2 count;
  let _, one = Structure.components (flat_of (G.cycle 5)) in
  Alcotest.(check int) "cycle is connected" 1 one

let count_cuts f =
  let cut, blocks = Structure.articulation f in
  (Array.fold_left (fun a c -> if c then a + 1 else a) 0 cut, blocks)

let test_articulation () =
  (* P5: the three interior vertices cut; 4 edge blocks. *)
  Alcotest.(check (pair int int))
    "path" (3, 4)
    (count_cuts (flat_of (G.path 5)));
  Alcotest.(check (pair int int))
    "cycle" (0, 1)
    (count_cuts (flat_of (G.cycle 5)));
  (* Two triangles glued at vertex 0. *)
  let bowtie =
    G.of_edges [ (0, 1); (1, 2); (2, 0); (0, 3); (3, 4); (4, 0) ]
  in
  Alcotest.(check (pair int int)) "bowtie" (1, 2) (count_cuts (flat_of bowtie))

let test_degeneracy () =
  Alcotest.(check int) "K5" 4 (Structure.degeneracy (flat_of (G.clique 5)));
  Alcotest.(check int) "P6" 1 (Structure.degeneracy (flat_of (G.path 6)));
  Alcotest.(check int) "C6" 2 (Structure.degeneracy (flat_of (G.cycle 6)))

let test_lexbfs_permutation () =
  Qcheck_gen.run_seeds ~name:"analysis.lexbfs-permutation" ~count:60
    (fun seed ->
      let rng = Random.State.make [| seed; 0xa11 |] in
      let g = Generators.gnp rng ~n:40 ~p:0.15 in
      let f = flat_of g in
      let order = Structure.lexbfs f in
      Alcotest.(check int) "length" (Flat.num_live f) (Array.length order);
      let seen = Hashtbl.create 64 in
      Array.iter
        (fun v ->
          Alcotest.(check bool) "live" true (Flat.is_live f v);
          Alcotest.(check bool) "fresh" false (Hashtbl.mem seen v);
          Hashtbl.replace seen v ())
        order;
      (* The + sweep is a permutation too, ending where the prior
         order started. *)
      let cap = Flat.capacity f in
      let prior = Array.make cap 0 in
      Array.iteri (fun pos v -> prior.(v) <- pos) order;
      let sweep2 = Structure.lexbfs ~prior f in
      Alcotest.(check int) "sweep2 length" (Array.length order)
        (Array.length sweep2);
      if Array.length order > 0 then
        Alcotest.(check int) "LBFS+ starts at the prior's last"
          order.(Array.length order - 1)
          sweep2.(0))

(* Brute-force umbrella existence for tiny graphs: try every
   permutation. *)
let brute_interval g =
  let f = flat_of g in
  let vs = Array.of_list (List.sort compare (G.vertices g)) in
  let idx = Array.map (fun v -> Flat.index f v) vs in
  let n = Array.length idx in
  let found = ref false in
  let rec permute k =
    if !found then ()
    else if k = n then begin
      if Structure.umbrella_ok f idx then found := true
    end
    else
      for i = k to n - 1 do
        let t = idx.(k) in
        idx.(k) <- idx.(i);
        idx.(i) <- t;
        permute (k + 1);
        let t = idx.(k) in
        idx.(k) <- idx.(i);
        idx.(i) <- t
      done
  in
  permute 0;
  !found

let test_umbrella_small () =
  Alcotest.(check bool) "P4 is interval" true (brute_interval (G.path 4));
  Alcotest.(check bool) "C4 is not interval" false (brute_interval (G.cycle 4));
  Alcotest.(check bool) "C5 is not interval" false (brute_interval (G.cycle 5))

let mk_problem ?(affinities = []) g =
  Problem.make ~graph:g ~affinities
    ~k:(max 2 (Rc_graph.Greedy_k.coloring_number g))

(* ------------------------------------------------------------------ *)
(* Interval recognition                                                *)
(* ------------------------------------------------------------------ *)

let test_recognition_hand () =
  let profile g = Profile.analyze (mk_problem g) in
  let c4 = profile (G.cycle 4) in
  Alcotest.(check string) "C4 class" "general" (Profile.classification c4);
  Alcotest.(check bool) "C4 not chordal" false c4.Profile.chordal;
  (* The net: a triangle with a pendant on each corner — chordal, but
     the pendants form an asteroidal triple. *)
  let net =
    G.of_edges [ (0, 1); (1, 2); (2, 0); (0, 3); (1, 4); (2, 5) ]
  in
  let np = profile net in
  Alcotest.(check bool) "net chordal" true np.Profile.chordal;
  Alcotest.(check (option bool))
    "net not interval" (Some false)
    (Profile.is_interval np);
  (match np.Profile.interval with
  | Profile.Not_interval_at _ -> ()
  | _ -> Alcotest.fail "expected an asteroidal-triple witness");
  let p6 = profile (G.path 6) in
  Alcotest.(check string) "P6 class" "interval" (Profile.classification p6)

(* Exactness on the AT-fallback regime: for small graphs the profile's
   interval verdict must match the brute-force umbrella search. *)
let test_recognition_exact_small () =
  Qcheck_gen.run_seeds ~name:"analysis.interval-exact-small" ~count:120
    (fun seed ->
      let rng = Random.State.make [| seed; 0x1e7 |] in
      let n = 4 + (seed mod 4) in
      let g = Generators.gnp rng ~n ~p:0.4 in
      let p = mk_problem g in
      let profile = Profile.analyze p in
      let expected = brute_interval g in
      match Profile.is_interval profile with
      | Some b -> Alcotest.(check bool) "verdict" expected b
      | None -> Alcotest.fail "AT fallback must decide small graphs")

(* Random interval models must never be rejected, and an
   [Interval_model] certificate must verify. *)
let test_recognition_interval_family () =
  let models = ref 0 in
  Qcheck_gen.run_seeds ~name:"analysis.interval-family" ~count:120
    (fun seed ->
      let rng = Random.State.make [| seed; 0x1f5 |] in
      let n = 10 + (seed mod 60) in
      let g = Generators.random_interval rng ~n ~span:(3 * n / 2) in
      let p = mk_problem g in
      let profile = Profile.analyze p in
      (match Profile.is_interval profile with
      | Some false -> Alcotest.fail "interval model classified non-interval"
      | Some true | None -> ());
      match Profile.interval_order profile with
      | None -> ()
      | Some order ->
          incr models;
          let f = flat_of g in
          let dense = Array.map (fun v -> Flat.index f v) order in
          Alcotest.(check bool)
            "certificate verifies" true
            (Structure.umbrella_ok f dense));
  (* The sweeps should produce an actual model on the vast majority of
     the family, or the endpoint walk never fires. *)
  Alcotest.(check bool)
    (Printf.sprintf "sweeps found models (%d/120)" !models)
    true (!models >= 100)

(* ------------------------------------------------------------------ *)
(* Endpoint walk                                                       *)
(* ------------------------------------------------------------------ *)

(* Every strategy but Aggressive promises a conservative answer (the
   [Assert_conservative] contract). *)
let claims_conservative = function Strategies.Aggressive -> false | _ -> true

let certify_conservative p sol =
  Certify.ok
    (Certify.certify_solution ~claims:[ Certify.Conservative ] p sol)

let test_interval_walk () =
  let walked = ref 0 and walk_total = ref 0 and chordal_total = ref 0 in
  Qcheck_gen.run_seeds ~name:"analysis.interval-walk" ~count:120
    (fun seed ->
      let p =
        Qcheck_gen.problem_in ~cls:Qcheck_gen.Interval ~n:(12 + (seed mod 40))
          ~density:0.45 ~affinity_fraction:0.5 seed
      in
      let profile = Profile.analyze p in
      match Profile.interval_order profile with
      | None -> ()
      | Some order ->
          incr walked;
          let sol = Interval_walk.coalesce ~order p in
          Alcotest.(check bool)
            "walk is certified conservative" true
            (certify_conservative p sol);
          let w = Coalescing.coalesced_weight sol in
          walk_total := !walk_total + w;
          chordal_total :=
            !chordal_total
            + Coalescing.coalesced_weight
                (Strategies.run Strategies.Chordal_incremental p);
          (* The walk and the Theorem-5 path are different conservative
             heuristics (either can win an instance); against the
             optimum the walk must never overshoot. *)
          if List.length p.Problem.affinities <= 10 then
            Alcotest.(check bool)
              (Printf.sprintf "seed %d: walk <= optimum" seed)
              true
              (w <= Coalescing.coalesced_weight (Exact.conservative p)));
  Alcotest.(check bool)
    (Printf.sprintf "walk exercised (%d/120)" !walked)
    true (!walked >= 90);
  (* Aggregate quality: the walk should be in the same league as the
     chordal-incremental path over the family, not degenerate. *)
  Alcotest.(check bool)
    (Printf.sprintf "walk total %d vs chordal total %d" !walk_total
       !chordal_total)
    true
    (!walk_total * 2 >= !chordal_total)

(* ------------------------------------------------------------------ *)
(* Presolve: plans, stats, and the differential                        *)
(* ------------------------------------------------------------------ *)

let diff_problem seed =
  if seed mod 3 = 0 then
    Qcheck_gen.problem_in ~cls:Qcheck_gen.Interval ~n:(20 + (seed mod 30))
      ~density:0.5 ~affinity_fraction:0.4 seed
  else
    Qcheck_gen.problem ~n:(24 + (seed mod 32)) ~n_affinities:(8 + (seed mod 10))
      seed

(* The strategies the trajectory-preservation argument covers (plus
   Aggressive, whose decisions are class-local too). *)
let split_safe_strategies =
  [
    Strategies.Aggressive;
    Strategies.Conservative Conservative.Briggs;
    Strategies.Conservative Conservative.George;
    Strategies.Conservative Conservative.Briggs_george;
    Strategies.Conservative Conservative.Briggs_george_extended;
    Strategies.Conservative Conservative.Brute_force;
    Strategies.Set_conservative 2;
  ]

let check_split_differential seed =
  let p = diff_problem seed in
  let plan = Presolve.run ~level:Presolve.Split_only p in
  let s = Presolve.stats plan in
  if s.Presolve.residual_vertices <> s.Presolve.original_vertices then
    Alcotest.failf "seed %d: split-only presolve dropped vertices" seed;
  List.iter
    (fun strategy ->
      let direct = Strategies.run strategy p in
      let lifted =
        match
          Presolve.lift_certified
            ~conservative:(claims_conservative strategy)
            plan
            (List.map
               (fun part -> Strategies.run strategy part)
               plan.Presolve.parts)
        with
        | Ok sol -> sol
        | Error m ->
            Alcotest.failf "seed %d: %s: lift failed: %s" seed
              (Strategies.name strategy) m
      in
      if
        Coalescing.coalesced_weight direct
        <> Coalescing.coalesced_weight lifted
      then
        Alcotest.failf "seed %d: %s: direct %d <> lifted %d" seed
          (Strategies.name strategy)
          (Coalescing.coalesced_weight direct)
          (Coalescing.coalesced_weight lifted);
      if
        claims_conservative strategy
        && not (certify_conservative p direct)
      then Alcotest.failf "seed %d: %s: direct not certified" seed
        (Strategies.name strategy))
    split_safe_strategies

let test_presolve_differential () =
  (* The full 200-seed satellite contract, serial... *)
  Qcheck_gen.run_seeds ~name:"analysis.presolve-split-differential" ~count:200
    check_split_differential

let test_presolve_differential_domains () =
  (* ... and re-run under 1 and 4 worker domains (tasks = seeds; any
     failure inside a task surfaces as a result string). *)
  List.iter
    (fun domains ->
      Pool.with_pool ~domains (fun pool ->
          let results =
            Pool.run pool ~tasks:48 (fun i ->
                match check_split_differential (151 + i) with
                | () -> None
                | exception e -> Some (Printexc.to_string e))
          in
          Array.iter
            (function
              | None -> ()
              | Some m -> Alcotest.failf "%d domains: %s" domains m)
            results))
    [ 1; 4 ]

let test_presolve_full_exact () =
  Qcheck_gen.run_seeds ~name:"analysis.presolve-full-exact" ~count:80
    (fun seed ->
      let p =
        Qcheck_gen.problem ~n:(10 + (seed mod 7))
          ~n_affinities:(4 + (seed mod 5))
          seed
      in
      let direct = Exact.conservative p in
      let plan = Presolve.run ~level:Presolve.Full p in
      let lifted =
        match
          Presolve.lift_certified ~conservative:true plan
            (List.map Exact.conservative plan.Presolve.parts)
        with
        | Ok sol -> sol
        | Error m -> Alcotest.failf "seed %d: lift failed: %s" seed m
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: optimum preserved" seed)
        (Coalescing.coalesced_weight direct)
        (Coalescing.coalesced_weight lifted))

let test_presolve_shrinks_interval () =
  (* Deterministic witness first: a long path at k = 3 peels down to
     the two affinity endpoints (every affinity-free vertex has degree
     <= 2 < k). *)
  let p50 =
    Problem.make ~graph:(G.path 50) ~affinities:[ ((0, 2), 5) ] ~k:3
  in
  let plan = Presolve.run ~level:Presolve.Full p50 in
  let s = Presolve.stats plan in
  (* The fixpoint dissolves the instance entirely: the interior peels,
     0 and 2 become twins and merge (capturing the affinity), and the
     merged vertex peels in turn. *)
  Alcotest.(check int) "path residual" 0 s.Presolve.residual_vertices;
  Alcotest.(check bool) "path used a twin merge" true (s.Presolve.twins >= 1);
  Alcotest.(check (float 1e-9)) "path shrink" 1.0 (Presolve.shrink plan);
  (match Presolve.lift_certified ~conservative:true plan [] with
  | Ok sol ->
      Alcotest.(check int) "lift recovers the affinity weight" 5
        (Coalescing.coalesced_weight sol)
  | Error m -> Alcotest.failf "empty-residual lift failed: %s" m);
  (* Then the random interval family: k sits at the clique number, so
     the peel only nibbles the fringe — but it must nibble. *)
  let total_shrink = ref 0. in
  Qcheck_gen.run_seeds ~name:"analysis.presolve-shrink" ~count:40 (fun seed ->
      let p =
        Qcheck_gen.problem_in ~cls:Qcheck_gen.Interval ~n:80 ~density:0.5
          ~affinity_fraction:0.25 seed
      in
      let plan = Presolve.run ~level:Presolve.Full p in
      let s = Presolve.stats plan in
      Alcotest.(check int)
        "residual accounting"
        s.Presolve.residual_vertices
        (s.Presolve.original_vertices - s.Presolve.peeled - s.Presolve.twins);
      total_shrink := !total_shrink +. Presolve.shrink plan);
  Alcotest.(check bool)
    (Printf.sprintf "mean shrink %.2f" (!total_shrink /. 40.))
    true
    (!total_shrink /. 40. > 0.05)

(* ------------------------------------------------------------------ *)
(* Dispatcher                                                          *)
(* ------------------------------------------------------------------ *)

let test_dispatch () =
  let cfg =
    { Strategies.default_config with check = Strategies.Assert_conservative }
  in
  let route = Dispatch.run Dispatch.Static_profile cfg in
  Qcheck_gen.run_seeds ~name:"analysis.dispatch-exact" ~count:40 (fun seed ->
      let p =
        Qcheck_gen.problem ~n:(10 + (seed mod 6))
          ~n_affinities:(4 + (seed mod 4))
          seed
      in
      let direct = Exact.conservative p in
      let routed = route Strategies.Exact_conservative p in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: routed exact is optimal" seed)
        (Coalescing.coalesced_weight direct)
        (Coalescing.coalesced_weight routed));
  Qcheck_gen.run_seeds ~name:"analysis.dispatch-chordal" ~count:40 (fun seed ->
      let p =
        Qcheck_gen.problem_in ~cls:Qcheck_gen.Chordal ~n:30 ~density:0.3
          ~affinity_fraction:0.4 seed
      in
      let routed = route (Strategies.Conservative Conservative.Briggs) p in
      (* The router's decision table, pinned branch by branch: an
         interval certificate routes to the endpoint walk, chordal
         routes to the Theorem-5 path, whatever the nominal
         heuristic.  (Assert_conservative already re-checked
         [routed].) *)
      let profile = Profile.analyze p in
      let expected =
        match Profile.interval_order profile with
        | Some order -> Interval_walk.coalesce ~order p
        | None ->
            Strategies.run_cfg cfg
              (if profile.Profile.chordal then Strategies.Chordal_incremental
               else Strategies.Conservative Conservative.Briggs)
              p
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: routed = profiled path" seed)
        (Coalescing.coalesced_weight expected)
        (Coalescing.coalesced_weight routed))

(* ------------------------------------------------------------------ *)
(* Zero-weight affinities round-trip into identical profiles           *)
(* ------------------------------------------------------------------ *)

let test_zero_weight_profile_parity () =
  let g = G.path 5 in
  let p =
    Problem.make ~graph:g ~affinities:[ ((0, 2), 0); ((1, 3), 4) ] ~k:2
  in
  let via_text =
    match Io.parse (Io.print p) with
    | Ok q -> q
    | Error m -> Alcotest.failf "text round trip: %s" m
  in
  let via_binary =
    match Io.of_binary (Io.to_binary p) with
    | Ok q -> q
    | Error e -> Alcotest.failf "binary round trip: %s" (Io.bin_error_to_string e)
  in
  Alcotest.(check int) "text keeps the zero-weight affinity" 2
    (List.length via_text.Problem.affinities);
  Alcotest.(check string)
    "profiles parse = binary"
    (Profile.to_json (Profile.analyze via_binary))
    (Profile.to_json (Profile.analyze via_text));
  Alcotest.(check string)
    "canonical hashes agree" (Io.canonical_hash via_binary)
    (Io.canonical_hash via_text)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "analysis"
    [
      ( "structure",
        [
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "articulation points + blocks" `Quick
            test_articulation;
          Alcotest.test_case "degeneracy" `Quick test_degeneracy;
          Alcotest.test_case "lexbfs permutations (60 seeds)" `Quick
            test_lexbfs_permutation;
          Alcotest.test_case "umbrella on tiny graphs" `Quick
            test_umbrella_small;
        ] );
      ( "interval",
        [
          Alcotest.test_case "hand classifications" `Quick
            test_recognition_hand;
          Alcotest.test_case "exact on the AT regime (120 seeds)" `Quick
            test_recognition_exact_small;
          Alcotest.test_case "interval family recognized (120 seeds)" `Quick
            test_recognition_interval_family;
          Alcotest.test_case "endpoint walk (120 seeds)" `Quick
            test_interval_walk;
        ] );
      ( "presolve",
        [
          Alcotest.test_case "split differential (200 seeds)" `Slow
            test_presolve_differential;
          Alcotest.test_case "split differential at 1/4 domains" `Slow
            test_presolve_differential_domains;
          Alcotest.test_case "full presolve preserves the optimum" `Quick
            test_presolve_full_exact;
          Alcotest.test_case "shrink accounting on intervals" `Quick
            test_presolve_shrinks_interval;
        ] );
      ( "dispatch",
        [ Alcotest.test_case "static-profile routing" `Quick test_dispatch ] );
      ( "io",
        [
          Alcotest.test_case "zero-weight profile parity" `Quick
            test_zero_weight_profile_parity;
        ] );
    ]
