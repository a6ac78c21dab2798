(* The checking stack (PR 3): IR/SSA lint, kernel sanitizer, and
   coalescing-result certifier.

   Three layers, three test families:
   - the lint accepts every Randprog output (structure, strict SSA,
     Theorem 1) and names the offending block/instruction on hand-built
     broken programs;
   - the certifier passes over the same 200-seed differential instances
     the search-equivalence suite uses, and mutation tests corrupt a
     valid answer one invariant at a time, asserting each corruption
     class is rejected;
   - the sanitizer audits full search workloads without a single
     violation, and deterministically catches every Flat.Fault
     injection class (asymmetric bits, orphaned adjacency, skewed edge
     counts, truncated undo logs, mirror divergence). *)

module G = Rc_graph.Graph
module IMap = G.IMap
module Flat = Rc_graph.Flat
module Greedy_k = Rc_graph.Greedy_k
module Generators = Rc_graph.Generators
module Ir = Rc_ir.Ir
module Ssa = Rc_ir.Ssa
module Randprog = Rc_ir.Randprog
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Speculation = Coalescing.Speculation
module Aggressive = Rc_core.Aggressive
module Conservative = Rc_core.Conservative
module Optimistic = Rc_core.Optimistic
module Exact = Rc_core.Exact
module Set_coalescing = Rc_core.Set_coalescing
module Strategies = Rc_core.Strategies
module Challenge = Rc_challenge.Challenge
module Lint = Rc_check.Lint
module Sanitize = Rc_check.Sanitize
module Certify = Rc_check.Certify
module Certify_oracle = Rc_oracle.Certify_oracle

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Same generator as test_search_equiv.ml, via the shared layer
   (test/qcheck_gen.ml): seeded problems over a greedy-k-colorable
   base, k = coloring number.  The recipe is byte-identical to the
   private copy this file used to carry, so seed-indexed instances are
   unchanged. *)
let random_problem = Qcheck_gen.problem
let run_seeds = Qcheck_gen.run_seeds

(* ------------------------------------------------------------------ *)
(* Layer 1: IR/SSA lint                                                *)
(* ------------------------------------------------------------------ *)

let test_lint_randprog () =
  let rng = Random.State.make [| 41 |] in
  for i = 1 to 40 do
    let prog = Randprog.generate rng Randprog.default_config in
    check
      (Printf.sprintf "raw program %d structurally clean" i)
      true
      (Lint.check_structure prog = []);
    let ssa = Ssa.construct prog in
    check
      (Printf.sprintf "SSA program %d passes Theorem-1 lint" i)
      true
      (Lint.check_theorem1 ssa = [])
  done

let block ?(phis = []) ?(succs = []) body : Ir.block = { phis; body; succs }

let test_lint_structure_violations () =
  (* Unknown successor. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks = IMap.add 0 (block ~succs:[ 7 ] []) IMap.empty;
      params = [];
      next_var = 0;
      next_label = 1;
    }
  in
  check "unknown successor caught" true
    (List.exists
       (function
         | Lint.Unknown_successor { block = 0; succ = 7 } -> true | _ -> false)
       (Lint.check_structure f));
  (* Missing entry. *)
  let f = { f with entry = 9 } in
  check "missing entry caught" true
    (List.mem (Lint.Missing_entry 9) (Lint.check_structure f));
  (* Duplicate successor. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks =
        IMap.add 0
          (block ~succs:[ 1; 1 ] [])
          (IMap.add 1 (block []) IMap.empty);
      params = [];
      next_var = 0;
      next_label = 2;
    }
  in
  check "duplicate successor caught" true
    (List.exists
       (function
         | Lint.Duplicate_successor { block = 0; succ = 1 } -> true
         | _ -> false)
       (Lint.check_structure f));
  (* Phi argument labels must be the predecessors. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks =
        IMap.add 0
          (block ~succs:[ 1 ] [ Ir.Op { def = Some 0; uses = [] } ])
          (IMap.add 1
             (block ~phis:[ { Ir.dst = 1; args = [ (5, 0) ] } ] [])
             IMap.empty);
      params = [];
      next_var = 2;
      next_label = 2;
    }
  in
  check "phi/pred mismatch caught" true
    (List.exists
       (function
         | Lint.Phi_pred_mismatch { block = 1; var = 1 } -> true | _ -> false)
       (Lint.check_structure f));
  (* Unreachable block. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks = IMap.add 0 (block []) (IMap.add 3 (block []) IMap.empty);
      params = [];
      next_var = 0;
      next_label = 4;
    }
  in
  check "unreachable block caught" true
    (List.mem (Lint.Unreachable_block 3) (Lint.check_strict_ssa f))

let test_lint_strictness_names_offender () =
  (* v5 used at body position 0, defined at position 1 of the same
     block: the violation must name block 0, instruction 0, variable 5. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks =
        IMap.add 0
          (block
             [
               Ir.Op { def = None; uses = [ 5 ] };
               Ir.Op { def = Some 5; uses = [] };
             ])
          IMap.empty;
      params = [];
      next_var = 6;
      next_label = 1;
    }
  in
  check "use-before-def names block and instruction" true
    (List.mem
       (Lint.Strictness (Ssa.Use_before_def { block = 0; index = 0; var = 5 }))
       (Lint.check_strict_ssa f));
  check "is_strict agrees" false (Ssa.is_strict f);
  (* Definition in one branch of a diamond does not dominate the join. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks =
        IMap.add 0
          (block ~succs:[ 1; 2 ] [])
          (IMap.add 1
             (block ~succs:[ 3 ] [ Ir.Op { def = Some 9; uses = [] } ])
             (IMap.add 2
                (block ~succs:[ 3 ] [])
                (IMap.add 3 (block [ Ir.Op { def = None; uses = [ 9 ] } ])
                   IMap.empty)));
      params = [];
      next_var = 10;
      next_label = 4;
    }
  in
  check "undominated use names def block" true
    (List.mem
       (Lint.Strictness
          (Ssa.Undominated_use { block = 3; index = 0; var = 9; def_block = 1 }))
       (Lint.check_strict_ssa f));
  (* Use of a variable that is defined nowhere. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks = IMap.add 0 (block [ Ir.Op { def = None; uses = [ 2 ] } ]) IMap.empty;
      params = [];
      next_var = 3;
      next_label = 1;
    }
  in
  check "undefined use caught" true
    (List.mem
       (Lint.Strictness (Ssa.Undefined_use { block = 0; index = 0; var = 2 }))
       (Lint.check_strict_ssa f));
  (* Double definition breaks SSA. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks =
        IMap.add 0
          (block
             [
               Ir.Op { def = Some 1; uses = [] };
               Ir.Op { def = Some 1; uses = [] };
             ])
          IMap.empty;
      params = [];
      next_var = 2;
      next_label = 1;
    }
  in
  check "multiple defs caught" true
    (List.mem
       (Lint.Strictness (Ssa.Multiple_defs { var = 1; count = 2 }))
       (Lint.check_strict_ssa f));
  check "is_ssa agrees" false (Ssa.is_ssa f)

let test_lint_audits () =
  (* Dead code: v2 is defined and never read, block 3 is unreachable;
     v1 is read (by v2's definition) and must not be flagged. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks =
        IMap.add 0
          (block
             [
               Ir.Op { def = Some 1; uses = [] };
               Ir.Op { def = Some 2; uses = [ 1 ] };
             ])
          (IMap.add 3 (block []) IMap.empty);
      params = [];
      next_var = 3;
      next_label = 4;
    }
  in
  let vs = Lint.check_dead_code f in
  check "unreachable block reported" true
    (List.mem (Lint.Unreachable_block 3) vs);
  check "unused def reported" true
    (List.mem (Lint.Unused_def { block = 0; var = 2 }) vs);
  check "used def not reported" false
    (List.exists
       (function Lint.Unused_def { var = 1; _ } -> true | _ -> false)
       vs);
  (* Unused parameters are definitions at the entry label. *)
  let f_param = { f with params = [ 7 ]; next_var = 8 } in
  check "unused param reported" true
    (List.mem
       (Lint.Unused_def { block = 0; var = 7 })
       (Lint.check_dead_code f_param));
  (* The audit is gated on structure: a broken CFG reports only the
     structural violations. *)
  let broken : Ir.func =
    {
      entry = 0;
      blocks = IMap.add 0 (block ~succs:[ 9 ] []) IMap.empty;
      params = [];
      next_var = 0;
      next_label = 1;
    }
  in
  check "dead-code audit gated on structure" true
    (List.for_all
       (function Lint.Unused_def _ -> false | _ -> true)
       (Lint.check_dead_code broken));
  (* Move audit: v1 dies at the move (never read again), so the copy
     v2 := v1 is freely coalescable; v4 is read after v5 := v4, so the
     endpoints co-live and the move carries a real constraint. *)
  let f : Ir.func =
    {
      entry = 0;
      blocks =
        IMap.add 0
          (block
             [
               Ir.Op { def = Some 1; uses = [] };
               Ir.Move { dst = 2; src = 1 };
               Ir.Op { def = Some 4; uses = [ 2 ] };
               Ir.Move { dst = 5; src = 4 };
               Ir.Op { def = None; uses = [ 4; 5 ] };
             ])
          IMap.empty;
      params = [];
      next_var = 6;
      next_label = 1;
    }
  in
  let vs = Lint.check_move_related f in
  check "dead-source move flagged" true
    (List.mem (Lint.Coalescable_move { block = 0; dst = 2; src = 1 }) vs);
  check "co-live move not flagged" false
    (List.exists
       (function
         | Lint.Coalescable_move { dst = 5; src = 4; _ } -> true | _ -> false)
       vs)

(* ------------------------------------------------------------------ *)
(* Problem.validate typed errors                                       *)
(* ------------------------------------------------------------------ *)

let test_problem_validate_typed () =
  let g = G.of_edges [ (0, 1); (1, 2) ] in
  let mk affinities k : Problem.t = { graph = g; affinities; k } in
  let errs p = match Problem.validate p with Ok () -> [] | Error es -> es in
  check "valid instance has no errors" true
    (errs (mk [ { u = 0; v = 2; weight = 3 } ] 2) = []);
  check "nonpositive k" true
    (List.mem (Problem.Nonpositive_k 0) (errs (mk [] 0)));
  check "self affinity" true
    (List.mem
       (Problem.Self_affinity { v = 1; weight = 2 })
       (errs (mk [ { u = 1; v = 1; weight = 2 } ] 2)));
  check "unordered affinity" true
    (List.mem
       (Problem.Unordered_affinity { u = 2; v = 0 })
       (errs (mk [ { u = 2; v = 0; weight = 1 } ] 2)));
  check "negative weight" true
    (List.mem
       (Problem.Negative_weight { u = 0; v = 2; weight = -1 })
       (errs (mk [ { u = 0; v = 2; weight = -1 } ] 2)));
  (* Zero-weight affinities are legal: they carry no objective value but
     still name a move, and the instance formats round-trip them. *)
  check "zero weight is legal" true
    (errs (mk [ { u = 0; v = 2; weight = 0 } ] 2) = []);
  check "missing endpoint" true
    (List.mem
       (Problem.Missing_endpoint { u = 0; v = 9; missing = 9 })
       (errs (mk [ { u = 0; v = 9; weight = 1 } ] 2)));
  check "duplicate affinity" true
    (List.mem
       (Problem.Duplicate_affinity { u = 0; v = 2 })
       (errs
          (mk
             [ { u = 0; v = 2; weight = 1 }; { u = 0; v = 2; weight = 4 } ]
             2)));
  (* Constrained affinities are legal by default, rejected on demand. *)
  let constrained = mk [ { u = 0; v = 1; weight = 5 } ] 2 in
  check "constrained affinity legal by default" true
    (Problem.validate constrained = Ok ());
  check "constrained affinity rejected in strict mode" true
    (match Problem.validate ~forbid_constrained:true constrained with
    | Error [ Problem.Constrained_affinity { u = 0; v = 1; weight = 5 } ] ->
        true
    | _ -> false);
  (* All errors are collected, not only the first: self + negative
     weight on the first affinity, one missing endpoint each for 9 and
     10 on the second. *)
  check_int "errors accumulate" 4
    (List.length
       (errs
          (mk [ { u = 1; v = 1; weight = -1 }; { u = 9; v = 10; weight = 1 } ] 2)))

(* ------------------------------------------------------------------ *)
(* Layer 3: certifier over the differential instances                  *)
(* ------------------------------------------------------------------ *)

let assert_certified name ?(claims = [ Certify.Conservative ]) p sol =
  let report = Certify.certify_solution ~claims p sol in
  if not (Certify.ok report) then
    Alcotest.failf "%s: %s" name (Format.asprintf "%a" Certify.pp_report report)

let test_certifier_differential () =
  run_seeds ~name:"certifier_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    assert_certified
      (Printf.sprintf "optimistic (seed %d)" seed)
      p (Optimistic.coalesce p);
    assert_certified
      (Printf.sprintf "set-2 (seed %d)" seed)
      p
      (Set_coalescing.coalesce ~max_set:2 p);
    assert_certified
      (Printf.sprintf "conservative brute-force (seed %d)" seed)
      p
      (Conservative.coalesce Conservative.Brute_force p);
    assert_certified ~claims:[]
      (Printf.sprintf "aggressive (seed %d)" seed)
      p (Aggressive.coalesce p));
  run_seeds ~name:"certifier_exact" ~count:60 (fun seed ->
    let p = random_problem ~n:10 ~n_affinities:5 seed in
    assert_certified
      (Printf.sprintf "exact (seed %d)" seed)
      p (Exact.conservative p))

let test_certifier_merge_log () =
  run_seeds ~name:"certifier_merge_log" ~count:50 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    let s = Speculation.of_state (Coalescing.initial p.graph) in
    List.iter
      (fun (a : Problem.affinity) -> ignore (Speculation.merge s a.u a.v))
      p.affinities;
    let st = Speculation.commit s in
    let answer = Certify.answer_of_solution (Coalescing.solution_of_state p st) in
    check
      (Printf.sprintf "merge log certifies (seed %d)" seed)
      true
      (Certify.check_merge_log p (Speculation.merge_log s) answer = []);
    (* A forged log (one merge dropped) must be flagged. *)
    match Speculation.merge_log s with
    | [] -> ()
    | _ :: rest ->
        check
          (Printf.sprintf "forged merge log rejected (seed %d)" seed)
          true
          (Certify.check_merge_log p rest answer <> []))

(* ------------------------------------------------------------------ *)
(* Mutation tests: each corruption class is rejected                   *)
(* ------------------------------------------------------------------ *)

let violations_of ?(claims = []) p a = (Certify.certify ~claims p a).violations

let test_mutation_classes () =
  (* A seed whose answer has at least one coalesced and one given-up
     affinity, so every mutation below is expressible. *)
  let p, a =
    let rec pick seed =
      let p = random_problem ~n:12 ~n_affinities:6 seed in
      let sol = Conservative.coalesce Conservative.Brute_force p in
      let a = Certify.answer_of_solution sol in
      if a.coalesced <> [] && a.gave_up <> [] && G.num_edges a.merged_graph > 0
      then (p, a)
      else pick (seed + 1)
    in
    pick 1
  in
  check "baseline answer certifies" true
    (violations_of ~claims:[ Certify.Conservative ] p a = []);
  let same_pair x y u v = (x = u && y = v) || (x = v && y = u) in
  (* 1. Drop a projected interference from the merged graph. *)
  let u, v = List.hd (G.edges a.merged_graph) in
  check "dropped merged edge caught" true
    (List.exists
       (function
         | Certify.Missing_projected_edge { u = x; v = y } -> same_pair x y u v
         | _ -> false)
       (violations_of p
          { a with merged_graph = G.remove_edge a.merged_graph u v }));
  (* 2. Add a spurious edge between two non-adjacent representatives. *)
  (let reps = List.map fst a.classes in
   let rec pick_pair = function
     | r :: rest -> (
         match
           List.find_opt
             (fun r' ->
               G.mem_vertex a.merged_graph r'
               && G.mem_vertex a.merged_graph r
               && not (G.mem_edge a.merged_graph r r'))
             rest
         with
         | Some r' -> Some (r, r')
         | None -> pick_pair rest)
     | [] -> None
   in
   match pick_pair reps with
   | None -> Alcotest.fail "no non-adjacent representative pair"
   | Some (r, r') ->
       check "spurious merged edge caught" true
         (List.exists
            (function
              | Certify.Spurious_merged_edge { u = x; v = y } ->
                  same_pair x y r r'
              | _ -> false)
            (violations_of p
               { a with merged_graph = G.add_edge a.merged_graph r r' })));
  (* 3. Inflate the claimed removed-move weight. *)
  check "inflated weight caught" true
    (List.mem
       (Certify.Weight_mismatch
          { claimed = a.claimed_weight + 7; actual = a.claimed_weight })
       (violations_of p { a with claimed_weight = a.claimed_weight + 7 }));
  (* 4. Misclassify an affinity: claim a given-up one as coalesced. *)
  (let m = List.hd a.gave_up in
   let mutated =
     {
       a with
       coalesced = m :: a.coalesced;
       gave_up = List.filter (fun x -> x <> m) a.gave_up;
     }
   in
   check "misclassified affinity caught" true
     (List.mem
        (Certify.Misclassified_affinity
           { u = m.u; v = m.v; claimed_coalesced = true })
        (violations_of p mutated)));
  (* 5. Interference inside a class: fuse two adjacent classes. *)
  (let u, v = List.hd (G.edges a.merged_graph) in
   let cu = List.assoc u a.classes and cv = List.assoc v a.classes in
   let fused =
     (u, cu @ cv)
     :: List.filter (fun (r, _) -> r <> u && r <> v) a.classes
   in
   check "interference inside a class caught" true
     (List.exists
        (function
          | Certify.Interference_inside_class { rep; _ } -> rep = u
          | _ -> false)
        (violations_of p { a with classes = fused })));
  (* 6. Coverage gap: drop a singleton class. *)
  (match
     List.find_opt (fun (_, ms) -> List.length ms = 1) a.classes
   with
  | None -> Alcotest.fail "no singleton class"
  | Some (r, _) ->
      check "uncovered vertex caught" true
        (List.mem (Certify.Vertex_not_covered r)
           (violations_of p
              { a with classes = List.filter (fun (r', _) -> r' <> r) a.classes })));
  (* 7. A false Conservative claim on an answer that is not. *)
  (let rec find_overly_aggressive seed =
     if seed > 400 then Alcotest.fail "no over-aggressive seed found"
     else
       let p = random_problem ~n:12 ~n_affinities:8 seed in
       let sol = Aggressive.coalesce p in
       if Coalescing.is_conservative p sol then
         find_overly_aggressive (seed + 1)
       else (p, sol)
   in
   let p, sol = find_overly_aggressive 1 in
   check "baseline aggressive sound" true
     (Certify.ok (Certify.certify_solution ~claims:[] p sol));
   check "false conservative claim caught" true
     (List.mem
        (Certify.Not_conservative { k = p.k })
        (Certify.certify_solution ~claims:[ Certify.Conservative ] p sol)
          .violations));
  (* 8. Chordality lost: merging the ends of a path closes a chordless
     cycle. *)
  let path = G.path 5 in
  let p = Problem.make ~graph:path ~affinities:[ ((0, 4), 1) ] ~k:2 in
  let st =
    match Coalescing.merge (Coalescing.initial path) 0 4 with
    | Some st -> st
    | None -> Alcotest.fail "path-end merge refused"
  in
  let sol = Coalescing.solution_of_state p st in
  check "chordality loss caught" true
    (List.mem Certify.Chordality_lost
       (Certify.certify_solution ~claims:[ Certify.Chordality_preserved ] p sol)
         .violations)

(* ------------------------------------------------------------------ *)
(* The array certifier against its persistent oracle                   *)
(* ------------------------------------------------------------------ *)

(* The conservative claim on every case, so the greedy-k peel runs on
   the stamped quotient and on merged graphs that differ from it; the
   chordality claim (one shared check) on uncorrupted answers. *)
let assert_same_report ?(claims = [ Certify.Conservative ]) ctx p a =
  let got = (Certify.certify ~claims p a).violations
  and want = (Certify_oracle.certify ~claims p a).violations in
  if got <> want then
    Alcotest.failf "%s: certifier reports [%s], oracle [%s]" ctx
      (String.concat "; " (List.map Certify.violation_to_string got))
      (String.concat "; " (List.map Certify.violation_to_string want))

(* Every heuristic the server certifies, plus aggressive, whose answers
   are often not conservative. *)
let certified_heuristics =
  List.filter
    (function Strategies.Irc _ -> false | _ -> true)
    Strategies.all_heuristics

(* serve-miss's instances: single-region programs of the five preset
   shapes at k = 6. *)
let miss_shapes =
  Array.of_list
    (List.map
       (fun (_, (c : Rc_ir.Randprog.config)) -> { c with regions = 1 })
       Challenge.presets)

let miss_problem seed =
  (Challenge.generate ~seed
     ~config:miss_shapes.(seed mod Array.length miss_shapes)
     ~k:6 ())
    .problem

(* The corruption classes of [test_mutation_classes] at positions drawn
   from [rng] (its two claim classes, false conservativeness and lost
   chordality, come from the aggressive answers and the path merges
   below), plus the partition, merged-vertex and affinity-bookkeeping
   forgeries those do not reach. *)
let corruptions rng (p : Problem.t) (a : Certify.answer) =
  let out = ref [] in
  let emit name ?(p = p) a' = out := (name, p, a') :: !out in
  let pick = function
    | [] -> None
    | l -> Some (List.nth l (Random.State.int rng (List.length l)))
  in
  let mg = a.merged_graph in
  let fresh = G.max_vertex p.graph + 1 + Random.State.int rng 5 in
  let without x = List.filter (fun y -> y <> x) in
  Option.iter
    (fun (u, v) ->
      emit "dropped merged edge" { a with merged_graph = G.remove_edge mg u v })
    (pick (G.edges mg));
  (let reps = List.filter (G.mem_vertex mg) (List.map fst a.classes) in
   List.concat_map
     (fun r ->
       List.filter_map
         (fun r' ->
           if r < r' && not (G.mem_edge mg r r') then Some (r, r') else None)
         reps)
     reps
   |> pick
   |> Option.iter (fun (r, r') ->
          emit "spurious merged edge" { a with merged_graph = G.add_edge mg r r' }));
  emit "inflated weight"
    { a with claimed_weight = a.claimed_weight + 1 + Random.State.int rng 9 };
  Option.iter
    (fun m ->
      emit "given-up affinity claimed coalesced"
        { a with coalesced = m :: a.coalesced; gave_up = without m a.gave_up })
    (pick a.gave_up);
  Option.iter
    (fun m ->
      emit "coalesced affinity claimed given up"
        { a with gave_up = m :: a.gave_up; coalesced = without m a.coalesced })
    (pick a.coalesced);
  Option.iter
    (fun (u, v) ->
      let cu = List.assoc u a.classes and cv = List.assoc v a.classes in
      emit "adjacent classes fused"
        {
          a with
          classes =
            (u, cu @ cv) :: List.filter (fun (r, _) -> r <> u && r <> v) a.classes;
        })
    (pick (G.edges mg));
  Option.iter
    (fun (r, _) ->
      emit "class dropped"
        { a with classes = List.filter (fun (r', _) -> r' <> r) a.classes })
    (pick a.classes);
  (match (pick a.classes, pick (G.vertices p.graph)) with
  | Some (r, _), Some x ->
      emit "vertex in two classes"
        {
          a with
          classes =
            List.map
              (fun (r', ms) -> if r' = r then (r', ms @ [ x ]) else (r', ms))
              a.classes;
        };
      emit "representative outside its class"
        {
          a with
          classes =
            List.map
              (fun (r', ms) -> if r' = r then (x, without x ms) else (r', ms))
              a.classes;
        };
      emit "unknown class member"
        {
          a with
          classes =
            List.map
              (fun (r', ms) -> if r' = r then (r', fresh :: ms) else (r', ms))
              a.classes;
        }
  | _ -> ());
  Option.iter
    (fun r ->
      emit "merged vertex removed" { a with merged_graph = G.remove_vertex mg r };
      emit "spurious merged vertex" { a with merged_graph = G.add_edge mg fresh r })
    (pick (G.vertices mg));
  emit "merged graph replaced by the problem graph"
    { a with merged_graph = p.graph };
  Option.iter
    (fun (m : Problem.affinity) ->
      emit "coalesced affinity dropped" { a with coalesced = without m a.coalesced };
      emit "coalesced affinity listed twice" { a with coalesced = m :: a.coalesced };
      emit "coalesced affinity reversed"
        { a with coalesced = { m with u = m.v; v = m.u } :: without m a.coalesced })
    (pick a.coalesced);
  Option.iter
    (fun (m : Problem.affinity) ->
      emit "given-up affinity dropped" { a with gave_up = without m a.gave_up };
      emit ~p:{ p with affinities = m :: p.affinities }
        "problem affinity duplicated" a)
    (pick a.gave_up);
  emit "unknown affinity listed"
    {
      a with
      gave_up = { Problem.u = fresh; v = fresh + 1; weight = 1 } :: a.gave_up;
    };
  emit ~p:{ p with affinities = List.rev p.affinities } "problem affinities reversed" a;
  List.rev !out

(* The instance and answer under an injective relabelling. *)
let relabel f (p : Problem.t) (a : Certify.answer) =
  let aff (x : Problem.affinity) = { x with u = f x.u; v = f x.v } in
  ( {
      p with
      graph = G.map_vertices f p.graph;
      affinities = List.map aff p.affinities;
    },
    {
      a with
      classes = List.map (fun (r, ms) -> (f r, List.map f ms)) a.classes;
      merged_graph = G.map_vertices f a.merged_graph;
      coalesced = List.map aff a.coalesced;
      gave_up = List.map aff a.gave_up;
    } )

let test_certifier_vs_oracle () =
  let solve s p =
    Certify.answer_of_solution (Strategies.run_cfg Strategies.default_config s p)
  in
  let claims = [ Certify.Conservative; Certify.Chordality_preserved ] in
  run_seeds ~name:"certify_vs_oracle" ~count:200 (fun seed ->
      let rng = Random.State.make [| seed; 0xce27 |] in
      (* Every certified heuristic's answer, then the corruptions of one
         conservative answer. *)
      let family name p a =
        List.iter
          (fun s ->
            assert_same_report ~claims
              (Printf.sprintf "%s seed %d, %s" name seed (Strategies.name s))
              p (solve s p))
          certified_heuristics;
        List.iter
          (fun (corruption, p', a') ->
            assert_same_report
              (Printf.sprintf "%s seed %d, %s" name seed corruption)
              p' a')
          (corruptions rng p a)
      in
      let brute = Strategies.Conservative Conservative.Brute_force in
      let p = random_problem ~n:12 ~n_affinities:6 seed in
      let a = solve brute p in
      family "random" p a;
      (* Labels spread far apart: the certifier's hashed vertex index. *)
      let sparse, a_sparse = relabel (fun v -> (1000 * v) + seed) p a in
      family "sparse labels" sparse a_sparse;
      let q = miss_problem seed in
      family "serve-miss" q
        (solve (Strategies.Conservative Conservative.Briggs_george) q);
      (* Merging the ends of a path: chordality is lost once the cycle
         it closes has four or more vertices. *)
      let len = 4 + (seed mod 7) in
      let path = G.path len in
      let p = Problem.make ~graph:path ~affinities:[ ((0, len - 1), 1) ] ~k:2 in
      match Coalescing.merge (Coalescing.initial path) 0 (len - 1) with
      | None -> Alcotest.fail "path-end merge refused"
      | Some st ->
          assert_same_report ~claims
            (Printf.sprintf "path %d" len)
            p
            (Certify.answer_of_solution (Coalescing.solution_of_state p st)))

(* Certification is O(n + m), pinned by allocation rather than time,
   after test_search_equiv's merge-chain test: certifying a
   conservative answer on [Challenge.synthetic] instances of 10^3, 10^4
   and 10^5 vertices must allocate fewer than
   [certify_words_per_element] words per |V| + |E| + |A| at every size
   (minimum of three trials, each from an empty minor heap).  A
   certifier that rebuilds the quotient as a persistent graph allocates
   200 to 350 words per element here, growing with log n. *)
let certify_words_per_element = 16.0

let test_certifier_allocation () =
  List.iter
    (fun n ->
      let p = (Challenge.synthetic ~seed:n ~n ~maxlive:12 ()).problem in
      let a =
        Certify.answer_of_solution
          (Conservative.coalesce Conservative.Briggs_george p)
      in
      let size =
        G.num_vertices p.graph + G.num_edges p.graph + List.length p.affinities
      in
      let best = ref infinity in
      for _ = 1 to 3 do
        Gc.minor ();
        let before = Gc.allocated_bytes () in
        let report = Certify.certify ~claims:[ Certify.Conservative ] p a in
        let after = Gc.allocated_bytes () in
        check (Printf.sprintf "answer certifies (n = %d)" n) true
          (Certify.ok report);
        best :=
          Float.min !best ((after -. before) /. float_of_int (Sys.word_size / 8))
      done;
      let per_element = !best /. float_of_int size in
      check
        (Printf.sprintf "n = %d: %.1f words per element, under %.0f" n
           per_element certify_words_per_element)
        true
        (per_element < certify_words_per_element))
    [ 1_000; 10_000; 100_000 ]

(* ------------------------------------------------------------------ *)
(* Layer 2: sanitizer                                                  *)
(* ------------------------------------------------------------------ *)

let with_sanitizer f =
  Sanitize.install ();
  Fun.protect ~finally:Sanitize.uninstall f

let test_sanitizer_clean_runs () =
  with_sanitizer (fun () ->
      let before = Sanitize.events_seen () in
      run_seeds ~name:"sanitizer_clean_runs" ~count:25 (fun seed ->
          let p = random_problem ~n:10 ~n_affinities:5 seed in
          ignore (Optimistic.coalesce p);
          ignore (Set_coalescing.coalesce ~max_set:2 p);
          ignore (Exact.conservative p));
      check "sanitizer audited events" true
        (Sanitize.events_seen () > before))

let test_sanitizer_catches_faults () =
  let expect_failure name f =
    match f () with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: corruption not caught" name
  in
  (* Asymmetric bitmatrix. *)
  let f = Flat.of_graph (G.clique 5) in
  Flat.Fault.drop_bit f 0 1;
  expect_failure "drop_bit" (fun () -> Flat.check_vertex f 0);
  (* Orphaned adjacency entry (row out of sync with bits). *)
  let f = Flat.of_graph (G.clique 5) in
  Flat.Fault.drop_adjacency f 0 1;
  expect_failure "drop_adjacency" (fun () -> Flat.check_invariants f);
  (* Cached edge count drift. *)
  let f = Flat.of_graph (G.clique 5) in
  Flat.Fault.skew_edge_count f 2;
  expect_failure "skew_edge_count" (fun () -> Flat.check_invariants f);
  (* Truncated undo log: drop records below an inner checkpoint's
     opening position, so its rollback under-replays and leaves the log
     shorter than the position — the balance check must fire. *)
  with_sanitizer (fun () ->
      let f = Flat.of_graph (G.path 6) in
      let _c1 = Flat.checkpoint f in
      Flat.add_edge f 0 2;
      let c2 = Flat.checkpoint f in
      Flat.add_edge f 0 3;
      Flat.Fault.truncate_log f 2;
      expect_failure "truncate_log" (fun () -> Flat.rollback f c2));
  (* Mirror divergence: mutating the flat graph behind the speculation
     context's back is caught at commit. *)
  with_sanitizer (fun () ->
      let g = G.path 6 in
      let p = Problem.make ~graph:g ~affinities:[ ((0, 2), 1) ] ~k:3 in
      let s = Speculation.of_state (Coalescing.initial p.graph) in
      check "speculative merge accepted" true (Speculation.merge s 0 2);
      let fl = Speculation.flat s in
      Flat.add_edge fl (Flat.index fl 1) (Flat.index fl 4);
      expect_failure "mirror divergence" (fun () ->
          ignore (Speculation.commit s)))

let test_sanitizer_balanced_speculation () =
  (* The monitors themselves must accept a well-behaved nested
     checkpoint discipline. *)
  with_sanitizer (fun () ->
      let f = Flat.of_graph (G.cycle 8) in
      let c1 = Flat.checkpoint f in
      Flat.add_edge f 0 4;
      let c2 = Flat.checkpoint f in
      Flat.merge f 1 5;
      Flat.rollback f c2;
      Flat.add_edge f 2 6;
      Flat.release f c1;
      check_int "depth balanced" 0 (Flat.checkpoint_depth f);
      check_int "log cleared at outermost release" 0 (Flat.log_length f);
      Flat.check_invariants f)

let () =
  Alcotest.run "rc_check"
    [
      ( "lint",
        [
          Alcotest.test_case "randprog outputs pass all layers (40 seeds)"
            `Quick test_lint_randprog;
          Alcotest.test_case "structure violations are named" `Quick
            test_lint_structure_violations;
          Alcotest.test_case "strictness violations name the offender" `Quick
            test_lint_strictness_names_offender;
          Alcotest.test_case "dead-code and move audits" `Quick
            test_lint_audits;
        ] );
      ( "problem",
        [
          Alcotest.test_case "validate returns typed errors" `Quick
            test_problem_validate_typed;
        ] );
      ( "certify",
        [
          Alcotest.test_case "differential instances certify (200 seeds)"
            `Quick test_certifier_differential;
          Alcotest.test_case "merge logs certify and forgeries fail" `Quick
            test_certifier_merge_log;
          Alcotest.test_case "mutation classes are rejected" `Quick
            test_mutation_classes;
          Alcotest.test_case "same violations as the oracle (200 seeds)"
            `Quick test_certifier_vs_oracle;
          Alcotest.test_case "certification allocates O(n + m)" `Quick
            test_certifier_allocation;
        ] );
      ( "sanitize",
        [
          Alcotest.test_case "clean search workloads (25 seeds)" `Quick
            test_sanitizer_clean_runs;
          Alcotest.test_case "fault injections are caught" `Quick
            test_sanitizer_catches_faults;
          Alcotest.test_case "balanced speculation accepted" `Quick
            test_sanitizer_balanced_speculation;
        ] );
    ]
