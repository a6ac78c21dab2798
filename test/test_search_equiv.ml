(* Differential lockdown of the flat-kernel search drivers.

   PR 2 moved the merge-heavy searches (Optimistic de-coalescing, Exact
   branch-and-bound, Set_coalescing) onto the Flat checkpoint/rollback
   speculation context.  Their persistent-graph implementations live on
   as the test-only oracle library (oracle/reference.ml); this suite
   replays >= 200 seeded random instances per algorithm through both
   and demands they agree on the removed-affinity weight, plus an
   independent brute-force oracle for the exact search so the
   suffix-weight pruning bound can never silently over-prune.  The
   persistent merge state the searches commit to is itself held to its
   oracle (oracle/coalescing_oracle.ml) step by step on seeded merge
   scripts. *)

module G = Rc_graph.Graph
module Greedy_k = Rc_graph.Greedy_k
module Generators = Rc_graph.Generators
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Aggressive = Rc_core.Aggressive
module Optimistic = Rc_core.Optimistic
module Exact = Rc_core.Exact
module Set_coalescing = Rc_core.Set_coalescing
module Reference = Rc_oracle.Reference

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Under --profile dev-checked (or RC_CHECKED=1) the whole differential
   suite runs with the kernel sanitizer auditing every speculation
   event; any invariant violation fails the run with [Failure]. *)
let () =
  if Rc_check.Sanitize.install_if_enabled () then
    print_endline "test_search_equiv: kernel sanitizer enabled"

(* Seeded random problems over a greedy-k-colorable base, from the
   shared generator layer (test/qcheck_gen.ml): chordal and gnp bases
   alternate so both dense-clique and sparse-random shapes are
   exercised; [k] is the base graph's coloring number, the tightest
   value for which every driver's precondition holds.  Each property
   wraps its loop in [Qcheck_gen.run_seeds], which emits the
   "[seeds] <name> <ran> <declared>" audit line CI verifies. *)
let random_problem = Qcheck_gen.problem
let run_seeds = Qcheck_gen.run_seeds

let weight = Coalescing.coalesced_weight

(* Common postcondition of the flat path: sound classification, a
   greedy-k merged graph, and a full independent certification of the
   answer (PR 3's Rc_check.Certify re-derives the quotient, the
   affinity split and the conservative claim from scratch). *)
let assert_valid name p sol =
  check (name ^ ": flat solution sound") true (Coalescing.check p sol = Ok ());
  check
    (name ^ ": flat merged graph greedy-k")
    true
    (Coalescing.is_conservative p sol);
  let report =
    Rc_check.Certify.certify_solution
      ~claims:[ Rc_check.Certify.Conservative ]
      p sol
  in
  if not (Rc_check.Certify.ok report) then
    Alcotest.failf "%s: %s" name
      (Format.asprintf "%a" Rc_check.Certify.pp_report report)

(* ------------------------------------------------------------------ *)
(* Optimistic                                                          *)
(* ------------------------------------------------------------------ *)

let scoring_of_seed seed =
  match seed mod 3 with
  | 0 -> Optimistic.Degree_per_weight
  | 1 -> Optimistic.Weight_only
  | _ -> Optimistic.Degree_only

let test_optimistic_differential () =
  run_seeds ~name:"optimistic_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    let scoring = scoring_of_seed seed in
    let flat = Optimistic.coalesce ~scoring p in
    let reference = Reference.Optimistic.coalesce ~scoring p in
    check_int
      (Printf.sprintf "optimistic weight (seed %d)" seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "optimistic (seed %d)" seed) p flat)

(* Phase 2 in isolation, from the fully aggressive state the Theorem 6
   experiments start at. *)
let test_decoalesce_differential () =
  run_seeds ~name:"decoalesce_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    let scoring = scoring_of_seed (seed + 1) in
    let st0 =
      Aggressive.coalesce_state (Coalescing.initial p.graph) p.affinities
    in
    let flat =
      Coalescing.solution_of_state p (Optimistic.decoalesce_greedy ~scoring p st0)
    in
    let reference =
      Coalescing.solution_of_state p
        (Reference.Optimistic.decoalesce_greedy ~scoring p st0)
    in
    check_int
      (Printf.sprintf "decoalesce weight (seed %d)" seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "decoalesce (seed %d)" seed) p flat)

(* ------------------------------------------------------------------ *)
(* Exact                                                               *)
(* ------------------------------------------------------------------ *)

let test_exact_differential () =
  run_seeds ~name:"exact_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:10 ~n_affinities:6 seed in
    let flat = Exact.conservative p in
    let reference = Reference.Exact.conservative p in
    check_int
      (Printf.sprintf "exact conservative weight (seed %d)" seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "exact conservative (seed %d)" seed) p flat;
    check_int
      (Printf.sprintf "exact aggressive weight (seed %d)" seed)
      (weight (Reference.Exact.aggressive p))
      (weight (Exact.aggressive p)))

let test_exact_k_colorable_differential () =
  (* The doubly-exponential variant: fewer, smaller instances. *)
  run_seeds ~name:"exact_k_colorable_differential" ~count:60 (fun seed ->
    let p = random_problem ~n:8 ~n_affinities:4 seed in
    check_int
      (Printf.sprintf "exact k-colorable weight (seed %d)" seed)
      (weight (Reference.Exact.conservative_k_colorable p))
      (weight (Exact.conservative_k_colorable p)))

(* Brute-force optimality oracle: enumerate all 2^m affinity subsets,
   realize each feasible one (merging a subset is order-independent:
   it succeeds iff no class of its transitive closure contains an
   interference), and keep the best value among those whose merged
   graph stays greedy-k.  The value of a subset is the weight of every
   affinity its closure coalesces — exactly what
   [Coalescing.coalesced_weight] reports — so the exact search must
   match it. *)
let brute_force_optimum (p : Problem.t) =
  let affinities = Array.of_list p.affinities in
  let m = Array.length affinities in
  let best = ref (-1) in
  for mask = 0 to (1 lsl m) - 1 do
    let st = ref (Some (Coalescing.initial p.graph)) in
    for i = 0 to m - 1 do
      if mask land (1 lsl i) <> 0 then
        match !st with
        | None -> ()
        | Some s ->
            let a = affinities.(i) in
            if Coalescing.same_class s a.u a.v then ()
            else st := Coalescing.merge s a.u a.v
    done;
    match !st with
    | Some s when Greedy_k.is_greedy_k_colorable (Coalescing.graph s) p.k ->
        let w = weight (Coalescing.solution_of_state p s) in
        if w > !best then best := w
    | Some _ | None -> ()
  done;
  !best

let test_exact_oracle () =
  run_seeds ~name:"exact_oracle" ~count:60 (fun seed ->
    let p = random_problem ~n:10 ~n_affinities:(3 + (seed mod 4)) seed in
    check_int
      (Printf.sprintf "exact = brute-force oracle (seed %d)" seed)
      (brute_force_optimum p)
      (weight (Exact.conservative p)))

(* ------------------------------------------------------------------ *)
(* Set coalescing                                                      *)
(* ------------------------------------------------------------------ *)

let test_set_differential () =
  run_seeds ~name:"set_differential" ~count:200 (fun seed ->
    let p = random_problem ~n:12 ~n_affinities:6 seed in
    let max_set = 2 + (seed mod 2) in
    let flat = Set_coalescing.coalesce ~max_set p in
    let reference = Reference.Set_coalescing.coalesce ~max_set p in
    check_int
      (Printf.sprintf "set-%d weight (seed %d)" max_set seed)
      (weight reference) (weight flat);
    assert_valid (Printf.sprintf "set-%d (seed %d)" max_set seed) p flat;
    (* Both paths must also agree on which affinities were coalesced,
       not only on their weight. *)
    let names sol =
      List.map (fun (a : Problem.affinity) -> (a.u, a.v)) sol.Coalescing.coalesced
    in
    check
      (Printf.sprintf "set-%d same coalesced set (seed %d)" max_set seed)
      true
      (names flat = names reference))

(* ------------------------------------------------------------------ *)
(* Subset enumeration                                                  *)
(* ------------------------------------------------------------------ *)

let test_subsets_by_weight () =
  let affs =
    List.mapi
      (fun i w -> { Problem.u = 2 * i; v = (2 * i) + 1; weight = w })
      [ 5; 3; 9; 1; 7 ]
  in
  let binom n r =
    let rec f n r = if r = 0 then 1 else n * f (n - 1) (r - 1) / r in
    f n r
  in
  List.iter
    (fun size ->
      let subsets = Set_coalescing.subsets_by_weight size affs in
      check_int
        (Printf.sprintf "C(5, %d) subsets" size)
        (binom 5 size) (List.length subsets);
      (* every subset has the right size, with distinct members in
         input order *)
      List.iter
        (fun s ->
          check_int "subset size" size (List.length s);
          let positions =
            List.map
              (fun (a : Problem.affinity) ->
                let rec idx i = function
                  | [] -> Alcotest.fail "unknown member"
                  | x :: _ when x == a -> i
                  | _ :: rest -> idx (i + 1) rest
                in
                idx 0 affs)
              s
          in
          check "members in input order" true
            (List.sort compare positions = positions
            && List.length (List.sort_uniq compare positions) = size))
        subsets;
      (* combined weights are non-increasing *)
      let weights =
        List.map
          (fun s ->
            List.fold_left (fun w (a : Problem.affinity) -> w + a.weight) 0 s)
          subsets
      in
      check "weights non-increasing" true
        (List.sort (fun a b -> compare b a) weights = weights))
    [ 1; 2; 3; 4; 5 ];
  (* the degenerate sizes *)
  check_int "size 0" 1 (List.length (Set_coalescing.subsets_by_weight 0 affs));
  check_int "size > m" 0 (List.length (Set_coalescing.subsets_by_weight 6 affs))

(* ------------------------------------------------------------------ *)
(* Merge state vs the per-merge rewrite oracle                         *)
(* ------------------------------------------------------------------ *)

module Oracle = Rc_oracle.Coalescing_oracle

(* Every observable of the class-local state must equal the oracle's. *)
let assert_same_state ctx vs st o =
  let fail what = Alcotest.failf "%s: %s differs from the oracle" ctx what in
  if not (G.equal (Coalescing.graph st) (Oracle.graph o)) then
    fail "merged graph";
  if Coalescing.classes st <> Oracle.classes o then fail "classes";
  Array.iter
    (fun u ->
      if Coalescing.find st u <> Oracle.find o u then
        fail (Printf.sprintf "find %d" u);
      if Coalescing.class_of st u <> Oracle.class_of o u then
        fail (Printf.sprintf "class_of %d" u);
      Array.iter
        (fun v ->
          if Coalescing.same_class st u v <> Oracle.same_class o u v then
            fail (Printf.sprintf "same_class %d %d" u v))
        vs)
    vs

(* The next pair of a merge script, drawn so every outcome shows up:
   fresh singletons absorbing (or absorbed by) one growing class, pairs
   already in one class, interfering pairs (an original edge, or an
   inherited one through the merged graph), and arbitrary pairs. *)
let script_pair rng g o vs grow =
  let n = Array.length vs in
  let any () = vs.(Random.State.int rng n) in
  let pick l = List.nth l (Random.State.int rng (List.length l)) in
  let singleton () =
    let start = Random.State.int rng n in
    let rec go i =
      if i = n then any ()
      else
        let v = vs.((start + i) mod n) in
        if Oracle.class_of o v = [ v ] then v else go (i + 1)
    in
    go 0
  in
  match Random.State.int rng 7 with
  | 0 | 1 -> (singleton (), grow)
  | 2 -> (grow, singleton ())
  | 3 ->
      let u = any () in
      (u, pick (Oracle.class_of o u))
  | 4 -> ( match G.edges g with [] -> (any (), any ()) | es -> pick es)
  | 5 -> (
      let u = any () in
      let og = Oracle.graph o in
      match G.ISet.elements (G.neighbors og (Oracle.find o u)) with
      | [] -> (u, any ())
      | ns -> (u, pick (Oracle.class_of o (pick ns))))
  | _ -> (any (), any ())

let pick_history rng h = List.nth h (Random.State.int rng (List.length h))

let test_coalescing_vs_oracle () =
  (* Outcome tallies over all seeds: accepted, refused as one class,
     refused for interference, and a fresh singleton absorbing a class
     of two or more.  Each must actually occur. *)
  let accepted = ref 0 and same = ref 0 and interfering = ref 0
  and absorbed = ref 0 in
  run_seeds ~name:"coalescing_vs_oracle" ~count:200 (fun seed ->
    let rng = Random.State.make [| seed; 0xc1a5 |] in
    let n = 6 + Random.State.int rng 20 in
    let g =
      match seed mod 4 with
      | 0 -> Generators.random_chordal rng ~n ~extra:(n / 4)
      | 1 -> Generators.gnp rng ~n ~p:0.
      | 2 -> Generators.gnp rng ~n ~p:0.06
      | _ -> Generators.gnp rng ~n ~p:0.2
    in
    let vs = Array.of_list (G.vertices g) in
    let grow = vs.(Random.State.int rng (Array.length vs)) in
    let ctx step = Printf.sprintf "seed %d, step %d" seed step in
    let st0 = Coalescing.initial g and o0 = Oracle.initial g in
    assert_same_state (ctx 0) vs st0 o0;
    (* Every state reached stays live: persistence means jumping back to
       an older one must find it untouched. *)
    let history = ref [ (st0, o0) ] in
    let st = ref st0 and o = ref o0 in
    for step = 1 to 3 * Array.length vs do
      if Random.State.int rng 10 = 0 then begin
        let st', o' = pick_history rng !history in
        st := st';
        o := o'
      end;
      if Random.State.int rng 8 = 0 then begin
        (* A speculative burst on a flat mirror, realized by [commit]:
           later persistent merges continue from the committed state. *)
        let spec = Coalescing.Speculation.of_state !st in
        for _ = 0 to Random.State.int rng 3 do
          let u, v = script_pair rng g !o vs grow in
          match (Coalescing.Speculation.merge spec u v, Oracle.merge !o u v) with
          | true, Some o' -> o := o'
          | false, None -> ()
          | true, None | false, Some _ ->
              Alcotest.failf
                "%s: speculative merge %d %d acceptance differs from the \
                 oracle"
                (ctx step) u v
        done;
        st := Coalescing.Speculation.commit spec;
        history := (!st, !o) :: !history
      end
      else begin
        let u, v = script_pair rng g !o vs grow in
        match (Coalescing.merge !st u v, Oracle.merge !o u v) with
        | Some st', Some o' ->
            incr accepted;
            if
              Oracle.class_of !o u = [ u ]
              && List.length (Oracle.class_of !o v) >= 2
            then incr absorbed;
            st := st';
            o := o';
            history := (st', o') :: !history
        | None, None ->
            if Oracle.same_class !o u v then incr same else incr interfering
        | Some _, None | None, Some _ ->
            Alcotest.failf "%s: merge %d %d acceptance differs from the oracle"
              (ctx step) u v
      end;
      assert_same_state (ctx step) vs !st !o
    done;
    (* [of_classes] rebuilds the same state from its classes. *)
    let rebuilt = Coalescing.of_classes g (Coalescing.classes !st) in
    assert_same_state (Printf.sprintf "seed %d, of_classes" seed) vs rebuilt !o;
    check
      (Printf.sprintf "unknown vertex is a typed error (seed %d)" seed)
      true
      (match Coalescing.find !st (G.max_vertex g + 1) with
      | _ -> false
      | exception Invalid_argument _ -> true));
  Printf.printf "merge outcomes: %d accepted (%d absorbing), %d same class, \
                 %d interfering\n"
    !accepted !absorbed !same !interfering;
  check "every merge outcome exercised" true
    (!absorbed >= 200 && !same >= 200 && !interfering >= 200)

(* Allocation regression for class-local merges: on an edgeless graph,
   each fresh singleton absorbs the growing class (its representative
   survives; the big class keeps its id).  Relabelling the smaller
   class and prepending its member list keeps the chain at O(n log n)
   words; rewriting every vertex's representative, or copying the big
   member list, makes it quadratic (~16x when n quadruples).  Each size
   is measured from an empty minor heap, minimum of three trials, as in
   test_challenge's streaming test. *)
let chain_alloc_words ~n =
  let g = List.fold_left G.add_vertex G.empty (List.init n Fun.id) in
  let st0 = Coalescing.initial g in
  let best = ref infinity in
  for _ = 1 to 3 do
    Gc.minor ();
    let before = Gc.allocated_bytes () in
    let st = ref st0 in
    for v = 1 to n - 1 do
      match Coalescing.merge !st v 0 with
      | Some s -> st := s
      | None -> Alcotest.failf "chain merge %d refused" v
    done;
    let after = Gc.allocated_bytes () in
    check_int "chain ends on the last fresh vertex" (n - 1)
      (Coalescing.find !st 0);
    best := Float.min !best ((after -. before) /. float_of_int (Sys.word_size / 8))
  done;
  !best

let test_merge_chain_allocation () =
  let w2 = chain_alloc_words ~n:2_000 in
  let w8 = chain_alloc_words ~n:8_000 in
  let ratio = w8 /. w2 in
  check
    (Printf.sprintf "chain allocation ratio %.2f (%.0f -> %.0f words) under 6x"
       ratio w2 w8)
    true (ratio < 6.0)

let () =
  Alcotest.run "rc_search_equiv"
    [
      ( "optimistic",
        [
          Alcotest.test_case "coalesce: flat = reference (200 seeds)" `Quick
            test_optimistic_differential;
          Alcotest.test_case "decoalesce: flat = reference (200 seeds)" `Quick
            test_decoalesce_differential;
        ] );
      ( "exact",
        [
          Alcotest.test_case "search: flat = reference (200 seeds)" `Quick
            test_exact_differential;
          Alcotest.test_case "k-colorable target: flat = reference" `Quick
            test_exact_k_colorable_differential;
          Alcotest.test_case "brute-force optimality oracle" `Quick
            test_exact_oracle;
        ] );
      ( "coalescing",
        [
          Alcotest.test_case "merge state = rewrite oracle (200 seeds)" `Quick
            test_coalescing_vs_oracle;
          Alcotest.test_case "merge chain allocates n log n" `Quick
            test_merge_chain_allocation;
        ] );
      ( "set_coalescing",
        [
          Alcotest.test_case "coalesce: flat = reference (200 seeds)" `Quick
            test_set_differential;
          Alcotest.test_case "subset enumeration" `Quick test_subsets_by_weight;
        ] );
    ]
