(* Tests for rc_core: Problem, Coalescing, Rules, Aggressive,
   Conservative, Chordal_coalescing (Theorem 5), Optimistic, Exact, Irc,
   Strategies — including the Figure 3 counterexamples. *)

module G = Rc_graph.Graph
module ISet = G.ISet
module IMap = G.IMap
module Greedy_k = Rc_graph.Greedy_k
module Coloring = Rc_graph.Coloring
module Generators = Rc_graph.Generators
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Rules = Rc_core.Rules
module Aggressive = Rc_core.Aggressive
module Conservative = Rc_core.Conservative
module Chordal_coalescing = Rc_core.Chordal_coalescing
module Optimistic = Rc_core.Optimistic
module Exact = Rc_core.Exact
module Irc = Rc_core.Irc
module Strategies = Rc_core.Strategies

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a small instance used in several tests: path 0-1-2-3 with affinities
   (0,2) and (1,3), k = 2 *)
let small_problem () =
  Problem.make
    ~graph:(G.of_edges [ (0, 1); (1, 2); (2, 3) ])
    ~affinities:[ ((0, 2), 5); ((1, 3), 3) ]
    ~k:2

(* random problems over a greedy-k-colorable base *)
let random_problem seed =
  let rng = Random.State.make [| seed; 1234 |] in
  let g = Generators.random_chordal rng ~n:12 ~extra:6 in
  let k = max 2 (Rc_graph.Chordal.omega g) in
  let vs = Array.of_list (G.vertices g) in
  let n = Array.length vs in
  let affinities = ref [] in
  let attempts = ref 0 in
  while List.length !affinities < 6 && !attempts < 100 do
    incr attempts;
    let u = vs.(Random.State.int rng n) and v = vs.(Random.State.int rng n) in
    if u <> v && not (G.mem_edge g u v) then
      affinities := ((u, v), 1 + Random.State.int rng 5) :: !affinities
  done;
  Problem.make ~graph:g ~affinities:!affinities ~k

(* ------------------------------------------------------------------ *)
(* Problem                                                             *)
(* ------------------------------------------------------------------ *)

let test_problem_make_normalizes () =
  let g = G.of_edges [ (0, 1) ] in
  let p =
    Problem.make ~graph:g
      ~affinities:[ ((1, 0), 2); ((0, 1), 3); ((0, 0), 9) ]
      ~k:2
  in
  check_int "merged duplicates" 1 (List.length p.affinities);
  check_int "weights summed" 5 (List.hd p.affinities).weight;
  check "self-affinity dropped" true
    (List.for_all (fun (a : Problem.affinity) -> a.u <> a.v) p.affinities);
  check "validates" true (Problem.validate p = Ok ())

let test_problem_make_rejects () =
  let g = G.of_edges [ (0, 1) ] in
  check "absent endpoint" true
    (try
       ignore (Problem.make ~graph:g ~affinities:[ ((0, 7), 1) ] ~k:2);
       false
     with Invalid_argument _ -> true);
  check "negative weight" true
    (try
       ignore (Problem.make ~graph:g ~affinities:[ ((0, 1), -1) ] ~k:2);
       false
     with Invalid_argument _ -> true);
  check "zero weight accepted" true
    (try
       ignore (Problem.make ~graph:g ~affinities:[ ((0, 1), 0) ] ~k:2);
       true
     with Invalid_argument _ -> false);
  check "bad k" true
    (try
       ignore (Problem.make ~graph:g ~affinities:[] ~k:0);
       false
     with Invalid_argument _ -> true)

let test_problem_constrained () =
  let g = G.of_edges [ (0, 1); (2, 3) ] in
  let p = Problem.make ~graph:g ~affinities:[ ((0, 1), 1); ((0, 2), 1) ] ~k:2 in
  check_int "one constrained" 1 (List.length (Problem.constrained p));
  check_int "one unconstrained" 1 (List.length (Problem.unconstrained p));
  check_int "total weight" 2 (Problem.total_weight p)

(* ------------------------------------------------------------------ *)
(* Coalescing semantics                                                *)
(* ------------------------------------------------------------------ *)

let test_merge_state () =
  let g = G.of_edges [ (0, 1); (2, 3) ] in
  let st = Coalescing.initial g in
  check "merge non-interfering" true (Coalescing.merge st 0 2 <> None);
  check "merge interfering rejected" true (Coalescing.merge st 0 1 = None);
  match Coalescing.merge st 0 2 with
  | None -> Alcotest.fail "merge failed"
  | Some st ->
      check "same class" true (Coalescing.same_class st 0 2);
      check "merge same class rejected" true (Coalescing.merge st 0 2 = None);
      check "class members" true
        (List.sort compare (Coalescing.class_of st 0) = [ 0; 2 ]);
      (* transitive interference: 0's class now interferes with 3 *)
      check "inherited interference blocks" true (Coalescing.merge st 0 3 = None)

(* A merge log that does not apply to its base is a typed error naming
   the entry, not an assertion failure: an interfering pair, a pair
   already in one class, and interference inherited through a merge. *)
let test_replay_infeasible_log () =
  let g = G.of_edges [ (0, 1); (2, 3) ] in
  let base = Coalescing.initial g in
  List.iter
    (fun log ->
      match Coalescing.Speculation.replay base log with
      | _ -> Alcotest.fail "an infeasible merge log replayed"
      | exception Invalid_argument m ->
          check
            (Printf.sprintf "replay error names the log: %s" m)
            true
            (String.starts_with ~prefix:"Coalescing.Speculation.replay" m))
    [ [ (0, 1) ]; [ (0, 2); (2, 0) ]; [ (0, 2); (2, 1) ] ];
  check "a feasible log still replays" true
    (Coalescing.classes (Coalescing.Speculation.replay base [ (0, 2); (1, 3) ])
    = [ (0, [ 0; 2 ]); (1, [ 1; 3 ]) ])

let test_solution_classification () =
  let p = small_problem () in
  let st = Coalescing.initial p.graph in
  let st =
    match Coalescing.merge st 0 2 with Some s -> s | None -> assert false
  in
  let sol = Coalescing.solution_of_state p st in
  check_int "one coalesced" 1 (List.length sol.coalesced);
  check_int "one gave up" 1 (List.length sol.gave_up);
  check_int "coalesced weight" 5 (Coalescing.coalesced_weight sol);
  check_int "remaining weight" 3 (Coalescing.remaining_weight sol);
  check "check passes" true (Coalescing.check p sol = Ok ());
  check "conservative (k=2)" true (Coalescing.is_conservative p sol)

(* ------------------------------------------------------------------ *)
(* Rules                                                               *)
(* ------------------------------------------------------------------ *)

let test_briggs_accepts_small () =
  (* two isolated vertices: trivially safe *)
  let g = G.of_edges ~vertices:[ 0; 1 ] [] in
  check "briggs" true (Rules.briggs g ~k:2 0 1)

let test_briggs_rejects_on_fig3 () =
  (* the Figure 3 permutation with pendant weights: combined node has
     k high-degree neighbors, Briggs must reject *)
  let k = 6 in
  let g = ref G.empty in
  for i = 0 to 3 do
    for j = i + 1 to 3 do
      g := G.add_edge !g i j;
      g := G.add_edge !g (4 + i) (4 + j)
    done
  done;
  for i = 0 to 3 do
    for j = 0 to 3 do
      if i <> j then g := G.add_edge !g i (4 + j)
    done
  done;
  (* pendants raise each neighbor's degree to 7 *)
  let fresh = ref 8 in
  for v = 1 to 3 do
    g := G.add_edge !g v !fresh;
    incr fresh;
    g := G.add_edge !g (4 + v) !fresh;
    incr fresh
  done;
  check "briggs rejects the single permutation move" false
    (Rules.briggs !g ~k 0 4)

let test_george_subset () =
  (* every high-degree neighbor of u is a neighbor of v *)
  let g =
    G.of_edges [ (0, 2); (0, 3); (1, 2); (1, 3); (2, 4); (2, 5); (3, 4); (3, 5) ]
  in
  (* k=2: deg(2)=deg(3)=4 >= 2, both neighbors of 1 *)
  check "george 0 into 1" true (Rules.george g ~k:2 0 1);
  (* but not the converse direction necessarily *)
  check "george is reflexive here" true (Rules.george g ~k:2 1 0)

let test_rules_preconditions () =
  let g = G.of_edges [ (0, 1) ] in
  check "adjacent rejected" true
    (try
       ignore (Rules.briggs g ~k:3 0 1);
       false
     with Invalid_argument _ -> true)

(* soundness: a rule-accepted merge preserves greedy-k-colorability *)
let prop_rules_sound =
  QCheck.Test.make ~name:"Briggs/George/extended merges stay greedy-k" ~count:150
    QCheck.(pair small_nat (2 -- 5))
    (fun (seed, k) ->
      let rng = Random.State.make [| seed; 17 |] in
      let g = Generators.gnp rng ~n:12 ~p:0.3 in
      if not (Greedy_k.is_greedy_k_colorable g k) then true
      else
        let vs = Array.of_list (G.vertices g) in
        let u = vs.(Random.State.int rng (Array.length vs)) in
        let v = vs.(Random.State.int rng (Array.length vs)) in
        if u = v || G.mem_edge g u v then true
        else
          let accepted =
            Rules.briggs g ~k u v
            || Rules.george g ~k u v
            || Rules.george g ~k v u
            || Rules.george_extended g ~k u v
            || Rules.george_extended g ~k v u
          in
          (not accepted)
          || Greedy_k.is_greedy_k_colorable (G.merge g u v) k)

(* The flat-kernel rule tests decide exactly like the persistent ones. *)
let prop_rules_flat_equivalent =
  QCheck.Test.make ~name:"flat Briggs/George = persistent Briggs/George"
    ~count:200
    QCheck.(pair small_nat (2 -- 5))
    (fun (seed, k) ->
      let rng = Random.State.make [| seed; 19 |] in
      let g = Generators.gnp rng ~n:12 ~p:0.3 in
      let f = Rc_graph.Flat.of_graph g in
      let vs = Array.of_list (G.vertices g) in
      let u = vs.(Random.State.int rng (Array.length vs)) in
      let v = vs.(Random.State.int rng (Array.length vs)) in
      if u = v || G.mem_edge g u v then true
      else
        let iu = Rc_graph.Flat.index f u and iv = Rc_graph.Flat.index f v in
        Rules.briggs g ~k u v = Rules.briggs_flat f ~k iu iv
        && Rules.george g ~k u v = Rules.george_flat f ~k iu iv
        && Rules.george_extended g ~k u v
           = Rules.george_extended_flat f ~k iu iv
        && Rules.briggs_or_george g ~k u v
           = Rules.briggs_or_george_flat f ~k iu iv)

(* ------------------------------------------------------------------ *)
(* Aggressive                                                          *)
(* ------------------------------------------------------------------ *)

let test_aggressive_simple () =
  let p = small_problem () in
  let sol = Aggressive.coalesce p in
  (* 0~2 and 1~3 are both mergeable (non-adjacent) *)
  check_int "everything coalesced" 0 (List.length sol.gave_up);
  check "sound" true (Coalescing.check p sol = Ok ())

let test_aggressive_blocked_by_interference () =
  let g = G.of_edges [ (0, 1) ] in
  let p = Problem.make ~graph:g ~affinities:[ ((0, 1), 1) ] ~k:2 in
  let sol = Aggressive.coalesce p in
  check_int "constrained move kept" 1 (List.length sol.gave_up)

let test_all_coalescable () =
  let p = small_problem () in
  check "all coalescable" true (Aggressive.all_coalescable p <> None);
  let g = G.of_edges [ (0, 1) ] in
  let p2 = Problem.make ~graph:g ~affinities:[ ((0, 1), 1) ] ~k:2 in
  check "not all coalescable" true (Aggressive.all_coalescable p2 = None)

(* ------------------------------------------------------------------ *)
(* Conservative                                                        *)
(* ------------------------------------------------------------------ *)

let test_conservative_rules_all_sound () =
  List.iter
    (fun rule ->
      for seed = 1 to 10 do
        let p = random_problem seed in
        let sol = Conservative.coalesce rule p in
        check
          (Printf.sprintf "%s sound (seed %d)" (Conservative.rule_name rule) seed)
          true
          (Coalescing.check p sol = Ok ());
        check
          (Printf.sprintf "%s conservative (seed %d)"
             (Conservative.rule_name rule) seed)
          true
          (Coalescing.is_conservative p sol)
      done)
    [
      Conservative.Briggs;
      Conservative.George;
      Conservative.Briggs_george;
      Conservative.Briggs_george_extended;
      Conservative.Brute_force;
    ]

let test_brute_force_dominates_briggs () =
  (* brute force coalesces at least as much weight as Briggs *)
  for seed = 1 to 10 do
    let p = random_problem seed in
    let b = Conservative.coalesce Conservative.Briggs p in
    let bf = Conservative.coalesce Conservative.Brute_force p in
    check "brute force >= briggs" true
      (Coalescing.coalesced_weight bf >= Coalescing.coalesced_weight b)
  done

(* Figure 3 (right): a greedy-3-colorable graph with affinities (a,b)
   and (a,c) that stays greedy-3-colorable when BOTH are coalesced but
   not when only one is.  Gadget found by exhaustive search over
   7-vertex graphs (the paper's drawing is reproduced qualitatively). *)
let fig3b_graph () =
  G.of_edges
    [
      (0, 6); (1, 3); (1, 4); (1, 5); (2, 3); (2, 4); (2, 5); (3, 6); (4, 5);
      (5, 6);
    ]

let test_fig3b_pairwise_conservativeness () =
  let k = 3 in
  let g = fig3b_graph () in
  let a = 0 and b = 1 and c = 2 in
  check "base greedy-3" true (Greedy_k.is_greedy_k_colorable g k);
  check "coalescing (a,b) alone breaks greedy-3" false
    (Greedy_k.is_greedy_k_colorable (G.merge g a b) k);
  check "coalescing (a,c) alone breaks greedy-3" false
    (Greedy_k.is_greedy_k_colorable (G.merge g a c) k);
  check "coalescing both stays greedy-3" true
    (Greedy_k.is_greedy_k_colorable (G.merge (G.merge g a b) a c) k);
  (* consequence: incremental brute-force conservative coalescing gets 0
     of the weight, while the exact solver gets all of it *)
  let p = Problem.make ~graph:g ~affinities:[ ((a, b), 1); ((a, c), 1) ] ~k in
  let inc = Conservative.coalesce Conservative.Brute_force p in
  check_int "incremental stuck at 0" 0 (Coalescing.coalesced_weight inc);
  let ex = Exact.conservative p in
  check_int "exact coalesces both" 2 (Coalescing.coalesced_weight ex)

(* ------------------------------------------------------------------ *)
(* Theorem 5: incremental conservative coalescing on chordal graphs    *)
(* ------------------------------------------------------------------ *)

let test_thm5_interfering_pair () =
  let g = G.of_edges [ (0, 1) ] in
  match Chordal_coalescing.decide g ~k:2 0 1 with
  | Chordal_coalescing.Uncoalescable _ -> ()
  | Chordal_coalescing.Coalescable _ -> Alcotest.fail "interfering pair"

let test_thm5_small_k () =
  let g = G.clique 3 in
  let g = G.add_vertex (G.add_vertex g 10) 11 in
  match Chordal_coalescing.decide g ~k:2 10 11 with
  | Chordal_coalescing.Uncoalescable reason ->
      check "mentions omega" true
        (String.length reason > 0 && String.contains reason 'o')
  | Chordal_coalescing.Coalescable _ -> Alcotest.fail "k < omega must fail"

let test_thm5_different_components () =
  let g = G.of_edges [ (0, 1); (5, 6) ] in
  check "cross components always coalescable" true
    (Chordal_coalescing.can_coalesce g ~k:2 0 5)

let test_thm5_path_positive () =
  (* interval-style chain where endpoints can share a color *)
  let g = G.of_edges [ (0, 1); (1, 2); (2, 3); (3, 4) ] in
  check "path endpoints coalescable" true
    (Chordal_coalescing.can_coalesce g ~k:2 0 4);
  (* 0 and 3 (odd distance in 2-coloring) cannot share with k=2 *)
  check "odd-distance pair not coalescable at k=2" false
    (Chordal_coalescing.can_coalesce g ~k:2 0 3)

let test_thm5_rejects_non_chordal () =
  check "rejects non-chordal" true
    (try
       ignore (Chordal_coalescing.decide (G.cycle 4) ~k:3 0 2);
       false
     with Invalid_argument _ -> true)

let test_thm5_certificate_sound () =
  (* whenever the answer is Coalescable, merging the certificate chain
     plus x and y keeps the graph chordal with unchanged omega *)
  let rng = Random.State.make [| 123 |] in
  let tried = ref 0 in
  while !tried < 25 do
    let g = Generators.random_chordal rng ~n:14 ~extra:6 in
    let vs = Array.of_list (G.vertices g) in
    let n = Array.length vs in
    if n >= 2 then begin
      let x = vs.(Random.State.int rng n) and y = vs.(Random.State.int rng n) in
      if x <> y && not (G.mem_edge g x y) then begin
        incr tried;
        let k = Rc_graph.Chordal.omega g in
        match Chordal_coalescing.decide g ~k x y with
        | Chordal_coalescing.Uncoalescable _ -> ()
        | Chordal_coalescing.Coalescable chain ->
            let merged =
              List.fold_left (fun g v -> G.merge g x v) g chain
            in
            let merged = G.merge merged x y in
            check "merged chordal" true (Rc_graph.Chordal.is_chordal merged);
            check "omega unchanged" true
              (Rc_graph.Chordal.omega merged <= k)
      end
    end
  done

let test_thm5_agrees_with_exact () =
  let rng = Random.State.make [| 321 |] in
  let tried = ref 0 in
  while !tried < 40 do
    let g = Generators.random_chordal rng ~n:11 ~extra:5 in
    let vs = Array.of_list (G.vertices g) in
    let n = Array.length vs in
    if n >= 2 then begin
      let x = vs.(Random.State.int rng n) and y = vs.(Random.State.int rng n) in
      if x <> y && not (G.mem_edge g x y) then begin
        incr tried;
        let k = max 1 (Rc_graph.Chordal.omega g) in
        let p = Problem.make ~graph:g ~affinities:[ ((x, y), 1) ] ~k in
        check "Theorem 5 algorithm = exact search" true
          (Chordal_coalescing.can_coalesce g ~k x y = Exact.incremental p x y)
      end
    end
  done

let test_thm5_k_independence () =
  (* the verdict is the same for any k >= omega *)
  let rng = Random.State.make [| 77 |] in
  let tried = ref 0 in
  while !tried < 15 do
    let g = Generators.random_chordal rng ~n:10 ~extra:5 in
    let vs = Array.of_list (G.vertices g) in
    let n = Array.length vs in
    if n >= 2 then begin
      let x = vs.(Random.State.int rng n) and y = vs.(Random.State.int rng n) in
      if x <> y && not (G.mem_edge g x y) then begin
        incr tried;
        let w = Rc_graph.Chordal.omega g in
        let at_omega = Chordal_coalescing.can_coalesce g ~k:w x y in
        check "same at omega+1" true
          (Chordal_coalescing.can_coalesce g ~k:(w + 1) x y = at_omega);
        check "same at omega+3" true
          (Chordal_coalescing.can_coalesce g ~k:(w + 3) x y = at_omega)
      end
    end
  done

let test_thm5_incremental_driver () =
  for seed = 1 to 8 do
    let p = random_problem seed in
    if Rc_graph.Chordal.is_chordal p.graph then begin
      let st =
        List.fold_left
          (fun st (a : Problem.affinity) ->
            if Rc_graph.Chordal.is_chordal (Coalescing.graph st) then
              match Chordal_coalescing.coalesce_incrementally p st a with
              | Some st' -> st'
              | None -> st
            else st)
          (Coalescing.initial p.graph)
          p.affinities
      in
      let sol = Coalescing.solution_of_state p st in
      check "driver sound" true (Coalescing.check p sol = Ok ());
      check "driver conservative" true (Coalescing.is_conservative p sol)
    end
  done

(* ------------------------------------------------------------------ *)
(* Optimistic                                                          *)
(* ------------------------------------------------------------------ *)

let test_optimistic_sound () =
  for seed = 1 to 10 do
    let p = random_problem seed in
    let sol = Optimistic.coalesce p in
    check "sound" true (Coalescing.check p sol = Ok ());
    check "conservative" true (Coalescing.is_conservative p sol)
  done

let test_optimistic_beats_or_ties_briggs_often () =
  (* not guaranteed instance-wise, but on aggregate it should never be
     drastically worse; we assert aggregate over seeds *)
  let total_opt = ref 0 and total_briggs = ref 0 in
  for seed = 1 to 15 do
    let p = random_problem seed in
    total_opt :=
      !total_opt + Coalescing.coalesced_weight (Optimistic.coalesce p);
    total_briggs :=
      !total_briggs
      + Coalescing.coalesced_weight (Conservative.coalesce Conservative.Briggs p)
  done;
  check "optimistic >= briggs in aggregate" true (!total_opt >= !total_briggs)

let test_decoalesce_greedy_restores () =
  let p = small_problem () in
  match Aggressive.all_coalescable p with
  | None -> Alcotest.fail "should be all coalescable"
  | Some st ->
      let st = Optimistic.decoalesce_greedy p st in
      check "greedy-k after de-coalescing" true
        (Greedy_k.is_greedy_k_colorable (Coalescing.graph st) p.k)

let test_optimistic_rejects_uncolorable_base () =
  let p = Problem.make ~graph:(G.clique 4) ~affinities:[] ~k:3 in
  check "rejects" true
    (try
       ignore (Optimistic.coalesce p);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Exact                                                               *)
(* ------------------------------------------------------------------ *)

let test_exact_simple () =
  let p = small_problem () in
  let sol = Exact.conservative p in
  check_int "both coalesced" 0 (List.length sol.gave_up);
  check "conservative" true (Coalescing.is_conservative p sol)

let test_exact_dominates_heuristics () =
  (* over strategies that, like the exact search, merge affinity
     endpoints only; the Theorem 5 driver is excluded because its
     certificate-chain merges (auxiliary, non-affinity merges) can
     legitimately beat the affinity-only optimum *)
  for seed = 1 to 10 do
    let p = random_problem seed in
    let ex = Coalescing.coalesced_weight (Exact.conservative p) in
    List.iter
      (fun strategy ->
        let h = Coalescing.coalesced_weight (Strategies.run strategy p) in
        check
          (Printf.sprintf "exact >= %s (seed %d)" (Strategies.name strategy) seed)
          true (ex >= h))
      [
        Strategies.Conservative Conservative.Briggs;
        Strategies.Conservative Conservative.Brute_force;
        Strategies.Optimistic;
        Strategies.Irc Irc.Briggs_and_george;
      ]
  done

let test_exact_aggressive_vs_conservative () =
  (* aggressive optimum is an upper bound for the conservative one *)
  for seed = 1 to 8 do
    let p = random_problem seed in
    let agg = Coalescing.coalesced_weight (Exact.aggressive p) in
    let cons = Coalescing.coalesced_weight (Exact.conservative p) in
    check "aggressive >= conservative" true (agg >= cons)
  done

let test_exact_incremental () =
  (* C5 is 3-colorable; adjacent vertices can never share *)
  let g = G.cycle 5 in
  let p = Problem.make ~graph:g ~affinities:[] ~k:3 in
  check "adjacent: no" false (Exact.incremental p 0 1);
  check "non-adjacent: yes with k=3" true (Exact.incremental p 0 2)

let test_exact_decoalesce_precondition () =
  let p = small_problem () in
  check "rejects partial state" true
    (try
       ignore (Exact.decoalesce p (Coalescing.initial p.graph));
       false
     with Invalid_argument _ -> true);
  match Aggressive.all_coalescable p with
  | None -> Alcotest.fail "all coalescable expected"
  | Some st ->
      let sol = Exact.decoalesce p st in
      check "optimal de-coalescing conservative" true
        (Coalescing.is_conservative p sol)

(* ------------------------------------------------------------------ *)
(* IRC                                                                 *)
(* ------------------------------------------------------------------ *)

let test_irc_no_spill_on_colorable () =
  for seed = 1 to 10 do
    let p = random_problem seed in
    let r = Irc.allocate p in
    check "no spills on greedy-k instances" true (r.spilled = []);
    check_int "single round" 1 r.rounds;
    (* coloring valid on the interference graph *)
    check "coloring valid" true (Coloring.is_valid p.graph r.coloring);
    check "within k" true (Coloring.num_colors r.coloring <= p.k);
    (* coalesced moves share colors *)
    List.iter
      (fun (a : Problem.affinity) ->
        check "coalesced move same color" true
          (IMap.find a.u r.coloring = IMap.find a.v r.coloring))
      r.solution.coalesced
  done

let test_irc_spills_on_overconstrained () =
  let p = Problem.make ~graph:(G.clique 5) ~affinities:[] ~k:3 in
  let r = Irc.allocate p in
  check "spills happen" true (r.spilled <> []);
  check "multiple rounds" true (r.rounds > 1);
  (* remaining vertices colored validly *)
  let remaining =
    List.fold_left G.remove_vertex p.graph r.spilled
  in
  check "residual coloring valid" true (Coloring.is_valid remaining r.coloring)

let test_irc_rules_comparison () =
  let total rule =
    let t = ref 0 in
    for seed = 1 to 10 do
      let p = random_problem seed in
      t := !t + Coalescing.coalesced_weight (Irc.allocate ~rule p).solution
    done;
    !t
  in
  check "briggs+george >= briggs alone" true
    (total Irc.Briggs_and_george >= total Irc.Briggs_only)

(* ------------------------------------------------------------------ *)
(* Chaitin aggressive-then-spill (Section 3, alternative a)            *)
(* ------------------------------------------------------------------ *)

let test_chaitin_no_spill_when_easy () =
  let p = small_problem () in
  let r = Rc_core.Chaitin.allocate p in
  check "no spills" true (r.spilled = []);
  check_int "everything coalesced" 0 (List.length r.solution.gave_up);
  check "coloring valid" true (Coloring.is_valid p.graph r.coloring)

let test_chaitin_spills_on_uncolorable_merge () =
  (* Theorem 3 gadget of K4 at k = 3: coalescing everything aggressively
     yields K4, which cannot be colored — Chaitin must spill, while
     optimistic coalescing on the same instance never does. *)
  let gadget = Rc_reductions.Thm3_conservative.build (G.clique 4) ~k:3 in
  let r = Rc_core.Chaitin.allocate gadget.problem in
  check "chaitin spills" true (r.spilled <> []);
  let opt = Optimistic.coalesce gadget.problem in
  check "optimistic never spills (stays conservative)" true
    (Coalescing.is_conservative gadget.problem opt);
  (* residual coloring is valid on the surviving subgraph *)
  let g = List.fold_left G.remove_vertex gadget.problem.graph r.spilled in
  check "residual coloring valid" true
    (Coloring.is_valid g
       (IMap.filter (fun v _ -> G.mem_vertex g v) r.coloring))

let test_chaitin_random_sound () =
  for seed = 1 to 8 do
    let p = random_problem seed in
    let r = Rc_core.Chaitin.allocate p in
    check "solution sound" true (Coalescing.check p r.solution = Ok ());
    let g = List.fold_left G.remove_vertex p.graph r.spilled in
    check "coloring valid" true
      (Coloring.is_valid g (IMap.filter (fun v _ -> G.mem_vertex g v) r.coloring))
  done

(* ------------------------------------------------------------------ *)
(* Set coalescing (the Section 4 transitivity remedy)                  *)
(* ------------------------------------------------------------------ *)

let test_set_coalescing_fig3b () =
  (* singles fail on the Figure 3b gadget; pairs succeed *)
  let g = fig3b_graph () in
  let p = Problem.make ~graph:g ~affinities:[ ((0, 1), 1); ((0, 2), 1) ] ~k:3 in
  let singles = Conservative.coalesce Conservative.Brute_force p in
  check_int "singles stuck" 0 (Coalescing.coalesced_weight singles);
  let sets = Rc_core.Set_coalescing.coalesce ~max_set:2 p in
  check_int "pairs coalesce both" 2 (Coalescing.coalesced_weight sets);
  check "conservative" true (Coalescing.is_conservative p sets)

let test_set_coalescing_dominates_singles () =
  for seed = 1 to 8 do
    let p = random_problem seed in
    let singles = Conservative.coalesce Conservative.Brute_force p in
    let sets = Rc_core.Set_coalescing.coalesce ~max_set:2 p in
    check "sets >= singles" true
      (Coalescing.coalesced_weight sets >= Coalescing.coalesced_weight singles);
    check "sound" true (Coalescing.check p sets = Ok ());
    check "conservative" true (Coalescing.is_conservative p sets)
  done

let test_transitive_affinities () =
  let g = fig3b_graph () in
  let p = Problem.make ~graph:g ~affinities:[ ((0, 1), 2); ((0, 2), 3) ] ~k:3 in
  match Rc_core.Set_coalescing.transitive_closure_affinities p with
  | [ a ] ->
      check "pair (1, 2)" true (a.u = 1 && a.v = 2);
      check_int "min weight" 2 a.weight
  | other -> Alcotest.failf "expected 1 transitive affinity, got %d" (List.length other)

(* ------------------------------------------------------------------ *)
(* Strategies                                                          *)
(* ------------------------------------------------------------------ *)

let test_strategies_all_run () =
  let p = random_problem 42 in
  List.iter
    (fun s ->
      let r = Strategies.evaluate s p in
      check (Strategies.name s ^ " reports weight sanely") true
        (r.coalesced_weight <= r.total_weight);
      if s <> Strategies.Aggressive then
        check (Strategies.name s ^ " conservative") true r.conservative)
    Strategies.all_heuristics

let prop_weight_conservation =
  QCheck.Test.make ~name:"coalesced + remaining weight = total" ~count:60
    QCheck.small_nat (fun seed ->
      let p = random_problem (1 + seed) in
      List.for_all
        (fun s ->
          let sol = Strategies.run s p in
          Coalescing.coalesced_weight sol + Coalescing.remaining_weight sol
          = Problem.total_weight p)
        [
          Strategies.Aggressive;
          Strategies.Conservative Conservative.Briggs_george;
          Strategies.Optimistic;
        ])

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rc_core"
    [
      ( "problem",
        [
          Alcotest.test_case "normalization" `Quick test_problem_make_normalizes;
          Alcotest.test_case "rejections" `Quick test_problem_make_rejects;
          Alcotest.test_case "constrained split" `Quick test_problem_constrained;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "merge state" `Quick test_merge_state;
          Alcotest.test_case "infeasible replay is typed" `Quick
            test_replay_infeasible_log;
          Alcotest.test_case "solution classification" `Quick
            test_solution_classification;
        ] );
      ( "rules",
        [
          Alcotest.test_case "briggs accepts trivial" `Quick
            test_briggs_accepts_small;
          Alcotest.test_case "briggs rejects fig3 permutation" `Quick
            test_briggs_rejects_on_fig3;
          Alcotest.test_case "george" `Quick test_george_subset;
          Alcotest.test_case "preconditions" `Quick test_rules_preconditions;
        ]
        @ qc [ prop_rules_flat_equivalent ] );
      ( "aggressive",
        [
          Alcotest.test_case "simple" `Quick test_aggressive_simple;
          Alcotest.test_case "interference blocks" `Quick
            test_aggressive_blocked_by_interference;
          Alcotest.test_case "all_coalescable" `Quick test_all_coalescable;
        ] );
      ( "conservative",
        [
          Alcotest.test_case "all rules sound" `Quick
            test_conservative_rules_all_sound;
          Alcotest.test_case "brute force dominates briggs" `Quick
            test_brute_force_dominates_briggs;
          Alcotest.test_case "fig3b: pairwise conservativeness" `Quick
            test_fig3b_pairwise_conservativeness;
        ] );
      ( "thm5",
        [
          Alcotest.test_case "interfering pair" `Quick test_thm5_interfering_pair;
          Alcotest.test_case "k < omega" `Quick test_thm5_small_k;
          Alcotest.test_case "different components" `Quick
            test_thm5_different_components;
          Alcotest.test_case "path cases" `Quick test_thm5_path_positive;
          Alcotest.test_case "rejects non-chordal" `Quick
            test_thm5_rejects_non_chordal;
          Alcotest.test_case "certificate soundness" `Quick
            test_thm5_certificate_sound;
          Alcotest.test_case "agrees with exact" `Quick test_thm5_agrees_with_exact;
          Alcotest.test_case "k-independence" `Quick test_thm5_k_independence;
          Alcotest.test_case "incremental driver" `Quick
            test_thm5_incremental_driver;
        ] );
      ( "optimistic",
        [
          Alcotest.test_case "sound" `Quick test_optimistic_sound;
          Alcotest.test_case "aggregate vs briggs" `Quick
            test_optimistic_beats_or_ties_briggs_often;
          Alcotest.test_case "de-coalescing restores" `Quick
            test_decoalesce_greedy_restores;
          Alcotest.test_case "uncolorable base rejected" `Quick
            test_optimistic_rejects_uncolorable_base;
        ] );
      ( "exact",
        [
          Alcotest.test_case "simple" `Quick test_exact_simple;
          Alcotest.test_case "dominates heuristics" `Quick
            test_exact_dominates_heuristics;
          Alcotest.test_case "aggressive >= conservative" `Quick
            test_exact_aggressive_vs_conservative;
          Alcotest.test_case "incremental" `Quick test_exact_incremental;
          Alcotest.test_case "decoalesce" `Quick test_exact_decoalesce_precondition;
        ] );
      ( "irc",
        [
          Alcotest.test_case "no spill on colorable" `Quick
            test_irc_no_spill_on_colorable;
          Alcotest.test_case "spills on overconstrained" `Quick
            test_irc_spills_on_overconstrained;
          Alcotest.test_case "rule comparison" `Quick test_irc_rules_comparison;
        ] );
      ( "chaitin",
        [
          Alcotest.test_case "no spill when easy" `Quick
            test_chaitin_no_spill_when_easy;
          Alcotest.test_case "spills on uncolorable merge" `Quick
            test_chaitin_spills_on_uncolorable_merge;
          Alcotest.test_case "random soundness" `Quick test_chaitin_random_sound;
        ] );
      ( "set_coalescing",
        [
          Alcotest.test_case "fig3b solved by pairs" `Quick
            test_set_coalescing_fig3b;
          Alcotest.test_case "dominates singles" `Quick
            test_set_coalescing_dominates_singles;
          Alcotest.test_case "transitive affinities" `Quick
            test_transitive_affinities;
        ] );
      ( "strategies",
        [ Alcotest.test_case "all run" `Quick test_strategies_all_run ] );
      ("properties", qc [ prop_rules_sound; prop_weight_conservation ]);
    ]
