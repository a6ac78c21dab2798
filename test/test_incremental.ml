(* Lockdown of the incremental rule engine (PR 6).

   The engine (Conservative.Engine + Rule_cache + Worklist) claims to
   produce the *identical* merge sequence as the rescan fixpoint while
   doing per-pass work proportional to the dirty set.  This suite holds
   it to that, against the test-only rescan oracle (oracle/rescan.ml):

   - 200+ seeded instances per rule family, incremental vs rescan;
   - a rollback-invalidation stress: external speculative merges and
     nested checkpoints driven over an engine-attached cache, verifying
     the cache's counters, movelists and buckets survive rollback
     exactly (the engine must re-reach the same fixpoint afterwards);
   - a row-form metamorphic relation: padding an instance with isolated
     vertices so every kernel row starts as an int array leaves every
     search's answer unchanged;
   - the incremental elimination order against a from-scratch
     elimination, with the kernel's promotion degree rotating so every
     row form goes through it;
   - unit tests for the worklist structure. *)

module G = Rc_graph.Graph
module Flat = Rc_graph.Flat
module Generators = Rc_graph.Generators
module Greedy_k = Rc_graph.Greedy_k
module Elim_order = Rc_graph.Elim_order
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Conservative = Rc_core.Conservative
module Set_coalescing = Rc_core.Set_coalescing
module Optimistic = Rc_core.Optimistic
module Spec = Coalescing.Speculation
module Rule_cache = Rc_core.Rule_cache
module Worklist = Rc_core.Worklist
module Strategies = Rc_core.Strategies
module Chordal = Rc_graph.Chordal
module Rescan = Rc_oracle.Rescan

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let run_seeds = Qcheck_gen.run_seeds

let () =
  if Rc_check.Sanitize.install_if_enabled () then
    print_endline "test_incremental: kernel sanitizer enabled"

let all_rules =
  Conservative.
    [ Briggs; George; Briggs_george; Briggs_george_extended; Brute_force ]

let classes_signature st = Coalescing.classes st

(* ------------------------------------------------------------------ *)
(* Incremental vs rescan                                               *)
(* ------------------------------------------------------------------ *)

let assert_same_solution name p a b =
  let sa = Coalescing.solution_of_state p a
  and sb = Coalescing.solution_of_state p b in
  check (name ^ ": classes") true
    (classes_signature a = classes_signature b);
  check (name ^ ": graphs") true
    (G.equal (Coalescing.graph a) (Coalescing.graph b));
  check_int
    (name ^ ": coalesced weight")
    (Coalescing.coalesced_weight sa)
    (Coalescing.coalesced_weight sb)

let test_conservative_differential () =
  run_seeds ~name:"incremental-vs-rescan" ~count:120 (fun seed ->
      let p = Qcheck_gen.problem ~n:40 ~n_affinities:30 seed in
      List.iter
        (fun rule ->
          let a =
            Conservative.coalesce_state rule ~k:p.k
              (Coalescing.initial p.graph) p.affinities
          and b =
            Rescan.conservative_state rule ~k:p.k
              (Coalescing.initial p.graph) p.affinities
          in
          assert_same_solution (Conservative.rule_name rule) p a b)
        all_rules)

(* Denser instances push the caches harder: more interference, more
   common-neighbor invalidation, more brute-force witnesses. *)
let test_conservative_differential_dense () =
  run_seeds ~name:"incremental-vs-rescan-dense" ~count:80 (fun seed ->
      let p =
        Qcheck_gen.problem_in ~cls:Qcheck_gen.Gnp ~n:60 ~density:0.4
          ~affinity_fraction:1.5 seed
      in
      List.iter
        (fun rule ->
          let a = Conservative.coalesce rule p
          and b = Rescan.conservative rule p in
          assert_same_solution
            (Conservative.rule_name rule)
            p a.Coalescing.state b.Coalescing.state)
        Conservative.[ Briggs_george; Briggs_george_extended; Brute_force ])

(* The cache must actually cache: on a re-entrant run over a quiescent
   engine after spurious dirtying, every verdict must come from the
   stamp cache (zero new misses for the stamped rules). *)
let test_cache_hits () =
  run_seeds ~name:"cache-hits-on-requiescence" ~count:40 (fun seed ->
      let p = Qcheck_gen.problem ~n:40 ~n_affinities:30 seed in
      let spec = Spec.of_state (Coalescing.initial p.graph) in
      let e =
        Conservative.Engine.create Conservative.Briggs_george ~k:p.k spec
          p.affinities
      in
      Conservative.Engine.run e;
      let cache = Conservative.Engine.cache e in
      Rule_cache.self_check cache;
      let s0 = Conservative.Engine.stats e in
      (* Dirty everything that is still open and run again: nothing may
         be recomputed, nothing may merge. *)
      Conservative.Engine.iter_open e (fun aid _ ->
          if not (Rule_cache.is_resolved cache aid) then
            Rule_cache.set_dirty cache aid);
      Conservative.Engine.run e;
      let s1 = Conservative.Engine.stats e in
      check_int "no new rule evaluations" s0.Rule_cache.misses
        s1.Rule_cache.misses;
      Rule_cache.self_check cache)

(* ------------------------------------------------------------------ *)
(* Rollback invalidation stress                                        *)
(* ------------------------------------------------------------------ *)

(* Drive an engine-attached cache through external speculative merges
   under nested marks, rolling back in various shapes, and verify the
   engine still agrees with a from-scratch rescan at the end.  This is
   exactly the Set_coalescing usage pattern. *)
let test_rollback_stress () =
  run_seeds ~name:"rollback-invalidation-stress" ~count:60 (fun seed ->
      let p = Qcheck_gen.problem ~n:36 ~n_affinities:28 seed in
      let rng = Random.State.make [| seed; 0xb5 |] in
      let spec = Spec.of_state (Coalescing.initial p.graph) in
      let e =
        Conservative.Engine.create Conservative.Briggs_george ~k:p.k spec
          p.affinities
      in
      Conservative.Engine.run e;
      let cache = Conservative.Engine.cache e in
      let f = Spec.flat spec in
      let reference = Spec.commit spec in
      (* Random speculative episodes: open up to 3 nested marks, merge
         random non-interfering live root pairs at each level, re-run
         the engine inside the speculation, then roll everything back. *)
      for _ = 1 to 6 do
        let live = ref [] in
        Flat.iter_live f (fun v -> live := v :: !live);
        let live = Array.of_list !live in
        let try_random_merge () =
          if Array.length live >= 2 then begin
            let a = live.(Random.State.int rng (Array.length live))
            and b = live.(Random.State.int rng (Array.length live)) in
            let a = Spec.root_index spec a and b = Spec.root_index spec b in
            if a <> b && not (Flat.mem_edge f a b) then
              Spec.merge_roots spec a b
          end
        in
        let depth = 1 + Random.State.int rng 3 in
        let marks = Array.init depth (fun _ -> Spec.mark spec) in
        Array.iteri
          (fun _ _ ->
            try_random_merge ();
            Conservative.Engine.run e)
          marks;
        Rule_cache.self_check cache;
        for i = depth - 1 downto 0 do
          Spec.rollback spec marks.(i)
        done;
        Rule_cache.self_check cache;
        (* Back at the fixpoint: the engine may have spuriously dirty
           affinities but must make no merge and reach the same state. *)
        Conservative.Engine.run e;
        check "state restored after rollback" true
          (classes_signature (Spec.commit spec)
          = classes_signature reference)
      done;
      (* Final cross-check against an untouched rescan. *)
      let b =
        Rescan.conservative_state Conservative.Briggs_george ~k:p.k
          (Coalescing.initial p.graph)
          p.affinities
      in
      assert_same_solution "post-stress" p (Spec.commit spec) b)

(* ------------------------------------------------------------------ *)
(* Search-layer differentials                                          *)
(* ------------------------------------------------------------------ *)

(* The set search prunes the pair enumeration with cached interference
   facts and brute-force witnesses; its trajectory must be *identical*
   to the rescan oracle's full enumeration, so the full solutions must
   agree. *)
let test_set_differential () =
  run_seeds ~name:"set-incremental-vs-rescan" ~count:60 (fun seed ->
      let p = Qcheck_gen.problem ~n:26 ~n_affinities:20 seed in
      let a = Set_coalescing.coalesce p and b = Rescan.set ~max_set:2 p in
      assert_same_solution "set search" p a.Coalescing.state
        b.Coalescing.state)

(* Optimistic phase 3 is a conservative brute-force fixpoint starting
   from a non-trivial merge state — exercises engine creation with
   pre-merged classes. *)
let test_optimistic_differential () =
  run_seeds ~name:"optimistic-incremental-vs-rescan" ~count:60 (fun seed ->
      let p = Qcheck_gen.problem ~n:32 ~n_affinities:26 seed in
      let a = Optimistic.coalesce p and b = Rescan.optimistic p in
      assert_same_solution "optimistic" p a.Coalescing.state
        b.Coalescing.state)

(* Chordal-incremental answers non-chordal input with the brute-force
   fixpoint on the engine; it must agree with the rescan there too. *)
let test_chordal_fallback_differential () =
  run_seeds ~name:"chordal-fallback-incremental-vs-rescan" ~count:40
    (fun seed ->
      let p =
        Qcheck_gen.problem_in ~cls:Qcheck_gen.Gnp ~n:30 ~density:0.25
          ~affinity_fraction:0.8 seed
      in
      if Chordal.is_chordal p.graph then
        Alcotest.failf "seed %d: expected a non-chordal instance" seed;
      let cached = Strategies.run Strategies.Chordal_incremental p in
      let spec = Rescan.conservative Conservative.Brute_force p in
      assert_same_solution "chordal-incremental, cached" p
        cached.Coalescing.state spec.Coalescing.state)

(* ------------------------------------------------------------------ *)
(* Row-form invariance                                                 *)
(* ------------------------------------------------------------------ *)

(* Pad [p] with isolated vertices, numbered above its largest vertex, up
   to 32 (D + 1) vertices for a largest degree D: the kernel's default
   promotion degree becomes at least D + 1, so every row of the padded
   mirror starts as an int array. *)
let pad_to_sparse (p : Problem.t) =
  let g = p.graph in
  let d = G.fold_vertices (fun v acc -> max acc (G.degree g v)) g 0 in
  let target = 32 * (d + 1) in
  let next = G.max_vertex g + 1 in
  let extra = max 0 (target - G.num_vertices g) in
  let g' = ref g in
  for i = 0 to extra - 1 do
    g' := G.add_vertex !g' (next + i)
  done;
  { p with graph = !g' }

(* Under the default rule small instances are almost all dense rows, so
   without padding the searches' sparse paths would go untested.  The
   answer depends on the graph's edges and its affinities alone, and
   isolated vertices carry neither, so every heuristic must coalesce the
   identical affinities once padded. *)
let test_padded_rows () =
  run_seeds ~name:"padded-rows-same-answers" ~count:200 (fun seed ->
      let n = 10 + (seed mod 70) in
      let p =
        match seed mod 3 with
        | 0 -> Qcheck_gen.problem ~n ~n_affinities:(3 * n / 4) seed
        | 1 ->
            Qcheck_gen.problem_in ~cls:Qcheck_gen.Interval ~n ~density:0.4
              ~affinity_fraction:0.75 seed
        | _ ->
            Qcheck_gen.problem_in ~cls:Qcheck_gen.K_colorable ~n ~density:0.3
              ~affinity_fraction:0.75 seed
      in
      let padded = pad_to_sparse p in
      check_int
        (Printf.sprintf "seed %d: padded rows start sparse" seed)
        0
        (Flat.dense_rows (Flat.of_graph padded.graph));
      List.iter
        (fun s ->
          let a = Strategies.run s p and b = Strategies.run s padded in
          if a.Coalescing.coalesced <> b.Coalescing.coalesced then
            Alcotest.failf "seed %d: %s coalesces other affinities once padded"
              seed (Strategies.name s))
        Strategies.all_heuristics)

(* ------------------------------------------------------------------ *)
(* Incremental elimination order                                       *)
(* ------------------------------------------------------------------ *)

(* Drive random merge probes through the pre/decide protocol and hold
   every verdict against the from-scratch oracle
   [Greedy_k.flat_is_greedy_k_colorable]; on rejections, independently
   verify the stuck set really is a k-core of the merged graph (the
   witness contract); interleave foreign mutations to exercise the
   epoch staleness detection and resync.  The kernel's promotion degree
   rotates with the seed: the default, 2 (rows promote mid-run), int
   rows only and bitset rows only. *)
let promote_at_of_seed seed =
  match seed mod 4 with
  | 0 -> None
  | 1 -> Some 2
  | 2 -> Some max_int
  | _ -> Some 0

let test_elim_order_oracle () =
  run_seeds ~name:"elim-order-oracle" ~count:60 (fun seed ->
      let rng = Random.State.make [| seed; 0xe110 |] in
      let n = 30 + Random.State.int rng 60 in
      let g = Generators.gnp rng ~n ~p:0.08 in
      let k = max 2 (Greedy_k.coloring_number g) in
      let f = Flat.of_graph ?promote_at:(promote_at_of_seed seed) g in
      let sigma = Elim_order.create f ~k in
      check "initial sync" true (Elim_order.sync sigma);
      Elim_order.self_check sigma;
      let in_set = Array.make (Flat.capacity f) false in
      for step = 1 to 80 do
        if step mod 10 = 0 then begin
          (* Foreign mutation: add and remove an edge behind sigma's
             back.  Net graph change: none; the epoch check must still
             notice and a resync must succeed. *)
          let a = Random.State.int rng n and b = Random.State.int rng n in
          if a <> b && Flat.is_live f a && Flat.is_live f b
             && not (Flat.mem_edge f a b)
          then begin
            Flat.add_edge f a b;
            Flat.remove_edge f a b;
            check "foreign mutation detected" false (Elim_order.in_sync sigma);
            check "resync" true (Elim_order.sync sigma)
          end
        end;
        let a = Random.State.int rng n and b = Random.State.int rng n in
        if a <> b && Flat.is_live f a && Flat.is_live f b
           && not (Flat.mem_edge f a b)
        then begin
          Elim_order.pre sigma ~iu:a ~iv:b;
          let c = Flat.checkpoint f in
          Flat.merge f a b;
          let expected = Greedy_k.flat_is_greedy_k_colorable f k in
          let got = Elim_order.decide sigma ~iu:a ~iv:b in
          check "repair verdict = oracle" expected got;
          if got then begin
            Flat.release f c;
            Elim_order.self_check sigma
          end
          else begin
            (* The stuck set must be a k-core of the *merged* graph:
               every member live with >= k neighbors inside the set. *)
            check "stuck set non-empty" true (Elim_order.stuck_count sigma > 0);
            Elim_order.iter_stuck sigma (fun v -> in_set.(v) <- true);
            Elim_order.iter_stuck sigma (fun v ->
                check "stuck member live" true (Flat.is_live f v);
                let d = ref 0 in
                Flat.iter_neighbors f v (fun w -> if in_set.(w) then incr d);
                check "stuck member degree >= k" true (!d >= k));
            Elim_order.iter_stuck sigma (fun v -> in_set.(v) <- false);
            Flat.rollback f c;
            Elim_order.refresh_epoch sigma;
            check "agreement restored by rollback" true
              (Elim_order.in_sync sigma);
            Elim_order.self_check sigma
          end
        end
      done;
      (* Final cross-check: the maintained order's verdict matches a
         fresh elimination of the final graph. *)
      check "final colorable" (Greedy_k.flat_is_greedy_k_colorable f k)
        (Elim_order.colorable sigma))

(* ------------------------------------------------------------------ *)
(* Worklist unit tests                                                 *)
(* ------------------------------------------------------------------ *)

let test_worklist_basic () =
  let w = Worklist.create ~buckets:3 ~cap:10 in
  check_int "empty" 0 (Worklist.cardinal w);
  Worklist.add w 3 0;
  Worklist.add w 7 0;
  Worklist.add w 5 1;
  Worklist.self_check w;
  check_int "bucket of 3" 0 (Worklist.bucket w 3);
  check_int "bucket of 5" 1 (Worklist.bucket w 5);
  check_int "bucket of absent" (-1) (Worklist.bucket w 9);
  check_int "size 0" 2 (Worklist.size w 0);
  Worklist.move w 3 2;
  Worklist.self_check w;
  check_int "moved" 2 (Worklist.bucket w 3);
  check_int "size 0 after move" 1 (Worklist.size w 0);
  Worklist.move w 3 2;
  check_int "self-move is a no-op" 2 (Worklist.bucket w 3);
  (match Worklist.pop w 0 with
  | Some 7 -> ()
  | _ -> Alcotest.fail "pop should return the LIFO head");
  check "pop empties" true (Worklist.pop w 0 = None);
  Worklist.remove w 5;
  check "remove" false (Worklist.mem w 5);
  Worklist.self_check w;
  check "add rejects duplicates" true
    (try
       Worklist.add w 3 0;
       false
     with Invalid_argument _ -> true);
  Worklist.clear w;
  check_int "clear" 0 (Worklist.cardinal w)

let test_worklist_random () =
  run_seeds ~name:"worklist-random-ops" ~count:50 (fun seed ->
      let rng = Random.State.make [| seed; 0x3117 |] in
      let cap = 1 + Random.State.int rng 40 in
      let nb = 1 + Random.State.int rng 5 in
      let w = Worklist.create ~buckets:nb ~cap in
      let model = Array.make cap (-1) in
      for _ = 1 to 400 do
        let id = Random.State.int rng cap in
        let b = Random.State.int rng nb in
        match Random.State.int rng 4 with
        | 0 ->
            if model.(id) = -1 then begin
              Worklist.add w id b;
              model.(id) <- b
            end
        | 1 ->
            if model.(id) >= 0 then begin
              Worklist.remove w id;
              model.(id) <- -1
            end
        | 2 ->
            Worklist.move w id b;
            model.(id) <- b
        | _ -> (
            match Worklist.pop w b with
            | None ->
                check "pop None only when model bucket empty" true
                  (Array.for_all (fun x -> x <> b) model)
            | Some id ->
                check_int "popped from right bucket" b model.(id);
                model.(id) <- -1)
      done;
      Worklist.self_check w;
      Array.iteri
        (fun id b -> check_int "model agreement" b (Worklist.bucket w id))
        model;
      for b = 0 to nb - 1 do
        let n = ref 0 in
        Worklist.iter_bucket w b (fun id ->
            check_int "iterated id tagged" b model.(id);
            incr n);
        check_int "iterated count = size" (Worklist.size w b)
          !n
      done)

let test_degree_bucket () =
  check_int "below k" 3 (Worklist.degree_bucket ~k:5 3);
  check_int "at k clamps" 5 (Worklist.degree_bucket ~k:5 5);
  check_int "above k clamps" 5 (Worklist.degree_bucket ~k:5 50);
  check_int "zero" 0 (Worklist.degree_bucket ~k:5 0)

let () =
  Alcotest.run "incremental"
    [
      ( "engine",
        [
          Alcotest.test_case "incremental = rescan (120 seeds, 5 rules)" `Quick
            test_conservative_differential;
          Alcotest.test_case "incremental = rescan, dense (80 seeds)" `Quick
            test_conservative_differential_dense;
          Alcotest.test_case "re-quiescence is all cache hits" `Quick
            test_cache_hits;
          Alcotest.test_case "rollback invalidation stress (60 seeds)" `Quick
            test_rollback_stress;
        ] );
      ( "search",
        [
          Alcotest.test_case "set search incremental = rescan (60 seeds)"
            `Quick test_set_differential;
          Alcotest.test_case "optimistic incremental = rescan (60 seeds)"
            `Quick test_optimistic_differential;
          Alcotest.test_case
            "chordal-incremental fallback incremental = rescan (40 seeds)"
            `Quick test_chordal_fallback_differential;
        ] );
      ( "elim-order",
        [
          Alcotest.test_case "repair verdict = oracle (60 seeds)" `Quick
            test_elim_order_oracle;
        ] );
      ( "worklist",
        [
          Alcotest.test_case "basic operations" `Quick test_worklist_basic;
          Alcotest.test_case "randomized vs model (50 seeds)" `Quick
            test_worklist_random;
          Alcotest.test_case "degree_bucket clamp" `Quick test_degree_bucket;
        ] );
      ( "padded-rows",
        [
          Alcotest.test_case "every search, same answers (200 seeds)" `Quick
            test_padded_rows;
        ] );
    ]
