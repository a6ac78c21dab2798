(* Differential lockdown of the exact-solver portfolio (PR 10).

   The pseudo-boolean core (Rc_core.Pb) claims byte-identity with the
   branch-and-bound (Rc_core.Exact) — not just equal optimum weights
   but the identical coalesced-affinity set, hence identical canonical
   report bytes — and the portfolio racer (Rc_core.Portfolio) claims
   the same through its union-component decomposition, plus honest
   accounting of every race in the Rc_check.Sanitize counters.  This
   suite pins all of it: >= 200-seed pb-vs-bb differentials (with
   zero-weight affinities injected every third seed), the brute-force
   2^m oracle, race-vs-bb identity with counter invariants, rows x
   domain-count byte-identity through the pool, cancellation fault
   injection (a winner killed mid-certify must not kill the race), and
   the closed set of exact backends (the "registry" group: the
   [exact:NAME] spellings and their refusals). *)

module G = Rc_graph.Graph
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Strategies = Rc_core.Strategies
module Exact = Rc_core.Exact
module Pb = Rc_core.Pb
module Portfolio = Rc_core.Portfolio
module Sanitize = Rc_check.Sanitize
module Pool = Rc_engine.Pool

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1)) in
  go 0

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)
let run_seeds = Qcheck_gen.run_seeds
let weight = Coalescing.coalesced_weight

let () =
  if Sanitize.install_if_enabled () then
    print_endline "test_portfolio: kernel sanitizer enabled"

(* The byte contract under test: same canonical report rendering,
   normalized to one strategy label so only the answer's bytes can
   differ. *)
let canon p sol =
  Format.asprintf "%a" Strategies.pp_report_canonical
    (Strategies.report_of_solution Strategies.Exact_conservative p sol)

let pairs (sol : Coalescing.solution) =
  List.map (fun (a : Problem.affinity) -> (a.u, a.v)) sol.Coalescing.coalesced

let assert_valid name p sol =
  check (name ^ ": solution sound") true (Coalescing.check p sol = Ok ());
  check (name ^ ": conservative") true (Coalescing.is_conservative p sol);
  let report =
    Rc_check.Certify.certify_solution
      ~claims:[ Rc_check.Certify.Conservative ]
      p sol
  in
  if not (Rc_check.Certify.ok report) then
    Alcotest.failf "%s: %s" name
      (Format.asprintf "%a" Rc_check.Certify.pp_report report)

(* Every third seed gets zero-weight affinities: free merges are where
   a sloppy objective encoding or a "strict improvement" assumption
   breaks first. *)
let random_problem ~n ~n_affinities seed =
  let p = Qcheck_gen.problem ~n ~n_affinities seed in
  if seed mod 3 <> 0 then p
  else
    let affs =
      List.mapi
        (fun i (a : Problem.affinity) ->
          ((a.u, a.v), if i mod 2 = 0 then 0 else a.weight))
        p.Problem.affinities
    in
    Problem.make ~graph:p.Problem.graph ~affinities:affs ~k:p.Problem.k

(* ------------------------------------------------------------------ *)
(* Pb vs branch-and-bound                                              *)
(* ------------------------------------------------------------------ *)

let test_pb_differential () =
  run_seeds ~name:"pb_differential" ~count:200 (fun seed ->
      let p = random_problem ~n:10 ~n_affinities:6 seed in
      let bb = Exact.conservative p in
      let pb = Pb.conservative p in
      check_int
        (Printf.sprintf "pb weight = bb weight (seed %d)" seed)
        (weight bb) (weight pb);
      check
        (Printf.sprintf "pb coalesced set = bb coalesced set (seed %d)" seed)
        true
        (pairs bb = pairs pb);
      check_string
        (Printf.sprintf "pb canonical bytes = bb canonical bytes (seed %d)"
           seed)
        (canon p bb) (canon p pb);
      assert_valid (Printf.sprintf "pb (seed %d)" seed) p pb)

(* Independent 2^m oracle (same enumeration as test_search_equiv): the
   CDCL bound proof plus the reconstruct pass must land exactly on the
   brute-force optimum. *)
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
    | Some s
      when Rc_graph.Greedy_k.is_greedy_k_colorable (Coalescing.graph s) p.k ->
        let w = weight (Coalescing.solution_of_state p s) in
        if w > !best then best := w
    | Some _ | None -> ()
  done;
  !best

let test_pb_oracle () =
  run_seeds ~name:"pb_oracle" ~count:60 (fun seed ->
      let p = random_problem ~n:10 ~n_affinities:(3 + (seed mod 4)) seed in
      check_int
        (Printf.sprintf "pb = brute-force oracle (seed %d)" seed)
        (brute_force_optimum p)
        (weight (Pb.conservative p)))

let test_pb_precheck () =
  (* K5 with k = 2 is not greedy-2-colorable: the pb backend must
     refuse, like Exact.conservative does. *)
  let g =
    List.fold_left
      (fun g (u, v) -> G.add_edge g u v)
      (List.fold_left G.add_vertex G.empty [ 0; 1; 2; 3; 4 ])
      [ (0, 1); (0, 2); (0, 3); (0, 4); (1, 2); (1, 3); (1, 4); (2, 3);
        (2, 4); (3, 4) ]
  in
  let p = Problem.make ~graph:g ~affinities:[] ~k:2 in
  check "pb refuses non-greedy-k input" true
    (match Pb.conservative p with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* The race: differential + counter invariants                         *)
(* ------------------------------------------------------------------ *)

let test_race_differential () =
  let races0 = Sanitize.races_run () in
  let wins0 = Sanitize.race_wins () in
  let cancelled0 = Sanitize.race_losers_cancelled () in
  let finished0 = Sanitize.race_losers_finished () in
  let raced = ref 0 in
  run_seeds ~name:"race_differential" ~count:100 (fun seed ->
      let p = random_problem ~n:10 ~n_affinities:5 seed in
      let bb = Exact.conservative p in
      Portfolio.clear_last_outcome ();
      let rc = Portfolio.conservative_race p in
      (match Portfolio.last_outcome () with
      | Some o ->
          incr raced;
          check
            (Printf.sprintf "winner is a racer (seed %d)" seed)
            true
            (List.mem o.Portfolio.winner o.Portfolio.racers);
          (* Two racers: each race has exactly one loser, and it was
             either cancelled or ran to completion. *)
          check_int
            (Printf.sprintf "one loser accounted (seed %d)" seed)
            1
            (o.Portfolio.losers_cancelled + o.Portfolio.losers_finished)
      | None ->
          (* No affinities survived into any union component. *)
          check_int
            (Printf.sprintf "no race means empty coalescing (seed %d)" seed)
            0
            (List.length rc.Coalescing.coalesced));
      check
        (Printf.sprintf "race coalesced set = bb coalesced set (seed %d)" seed)
        true
        (pairs bb = pairs rc);
      check_string
        (Printf.sprintf "race canonical bytes = bb canonical bytes (seed %d)"
           seed)
        (canon p bb) (canon p rc);
      assert_valid (Printf.sprintf "race (seed %d)" seed) p rc);
  (* Sanitize accounting invariants over exactly the races this test
     ran (the counters are global; diff against the snapshot). *)
  let races = Sanitize.races_run () - races0 in
  check_int "every race reached the monitor" !raced races;
  let wins_delta =
    let old b =
      match List.assoc_opt b wins0 with Some n -> n | None -> 0
    in
    List.fold_left
      (fun acc (b, n) -> acc + n - old b)
      0 (Sanitize.race_wins ())
  in
  check_int "win counts sum to races run" races wins_delta;
  check_int "every loser cancelled or finished" races
    (Sanitize.race_losers_cancelled ()
    - cancelled0
    + (Sanitize.race_losers_finished () - finished0))

let test_race_no_affinities () =
  let g = List.fold_left G.add_vertex G.empty [ 0; 1; 2 ] in
  let p = Problem.make ~graph:g ~affinities:[] ~k:1 in
  Portfolio.clear_last_outcome ();
  let sol = Portfolio.conservative_race p in
  check_int "empty coalescing" 0 (List.length sol.Coalescing.coalesced);
  check "no race recorded" true (Portfolio.last_outcome () = None)

let test_race_reach_refusal () =
  (* 25 affinities all sharing vertex 0: one union component far over
     the default reach — the portfolio must refuse, not hang. *)
  let n = 26 in
  let g =
    List.fold_left G.add_vertex G.empty (List.init n (fun i -> i))
  in
  let affs = List.init (n - 1) (fun i -> ((0, i + 1), 1)) in
  let p = Problem.make ~graph:g ~affinities:affs ~k:1 in
  match Portfolio.conservative_race p with
  | exception Invalid_argument m ->
      check "refusal names the reach" true
        (contains m "reach")
  | _ -> Alcotest.fail "expected the reach refusal"

let test_race_clustered_scale () =
  (* Decomposable structure at a scale where a monolithic exact search
     is unthinkable: 40 gadgets x 12 vertices, ~100 affinities total,
     every union component a dozen vertices.  The race must solve and
     certify it. *)
  let inst =
    Rc_challenge.Challenge.clustered ~seed:3 ~gadgets:40 ~size:12 ~maxlive:3 ()
  in
  let p = inst.Rc_challenge.Challenge.problem in
  check "clustered instance has affinities" true (p.Problem.affinities <> []);
  let sol = Portfolio.conservative_race p in
  assert_valid "clustered race" p sol

(* The 10k sweep preset end to end: two monolithic 10^4-vertex
   synthetic instances and one clustered instance (500 gadgets x 20
   vertices).  Branch-and-bound [exact] is ceilinged far below 10^4, so
   its clustered cell is Capped; [exact:race] refuses the monolithic
   instance (one union component over the reach: Failed, not a hang)
   and solves the clustered one. *)
let test_race_10k_preset () =
  let preset =
    match Rc_engine.Sweep.preset_of_string "10k" with
    | Ok p -> p
    | Error m -> Alcotest.fail m
  in
  let t =
    Rc_engine.Sweep.run ~domains:2
      ~strategies:
        [ Strategies.Exact_conservative; Strategies.Exact_backend "race" ]
      ~seed:2026 preset
  in
  let outcome sname i =
    match
      Array.find_opt
        (fun (c : Rc_engine.Sweep.cell) ->
          c.strategy = sname && c.instance = i)
        t.Rc_engine.Sweep.cells
    with
    | Some c -> c.Rc_engine.Sweep.outcome
    | None -> Alcotest.failf "missing sweep cell %s #%d" sname i
  in
  (match outcome "exact" 2 with
  | Rc_engine.Sweep.Capped _ -> ()
  | _ -> Alcotest.fail "bb exact on the clustered 10^4 cell is not Capped");
  (match outcome "exact:race" 0 with
  | Rc_engine.Sweep.Failed m ->
      check "refusal names the reach" true (contains m "reach")
  | _ -> Alcotest.fail "exact:race did not refuse the monolithic 10^4 cell");
  match outcome "exact:race" 2 with
  | Rc_engine.Sweep.Report r ->
      check "clustered cell answered conservatively" true r.conservative;
      check "clustered cell coalesces something" true (r.coalesced_weight > 0)
  | _ -> Alcotest.fail "exact:race did not solve the clustered 10^4 cell"

(* ------------------------------------------------------------------ *)
(* Race mechanics (Portfolio.race directly)                            *)
(* ------------------------------------------------------------------ *)

let spin_until pred =
  while not (pred ()) do
    Domain.cpu_relax ()
  done

let test_race_winner_cancels_loser () =
  let slow stop =
    spin_until stop;
    raise Portfolio.Stopped
  in
  let answer, o =
    Portfolio.race
      ~certify:(fun _ -> true)
      [ ("fast", fun _ -> 42); ("slow", slow) ]
  in
  check_int "fast answer" 42 answer;
  check_string "fast wins" "fast" o.Portfolio.winner;
  check "racers recorded in entry order" true
    (o.Portfolio.racers = [ "fast"; "slow" ]);
  check_int "loser cancelled" 1 o.Portfolio.losers_cancelled;
  check_int "no loser finished" 0 o.Portfolio.losers_finished;
  check "cancel latency non-negative" true (o.Portfolio.cancel_latency_ns >= 0)

let test_race_kill_winner_mid_certify () =
  (* Fault injection: the first answer's certification crashes (an
     exception inside [certify] counts as a refusal, not a race
     failure); the other racer, released by the crash, must still win. *)
  let poisoned = Atomic.make false in
  let certify v =
    if v = 1 then begin
      Atomic.set poisoned true;
      raise Exit
    end
    else true
  in
  let waiter stop =
    spin_until (fun () -> Atomic.get poisoned || stop ());
    2
  in
  let answer, o =
    Portfolio.race ~certify [ ("doomed", fun _ -> 1); ("backup", waiter) ]
  in
  check_int "backup answer" 2 answer;
  check_string "backup wins" "backup" o.Portfolio.winner;
  check_int "doomed finished uncancelled" 1 o.Portfolio.losers_finished

let test_race_all_killed () =
  match
    Portfolio.race ~certify:(fun _ -> false) [ ("a", fun _ -> 1); ("b", fun _ -> 2) ]
  with
  | exception Failure m ->
      check "failure names the race" true
        (contains m "no racer")
  | _ -> Alcotest.fail "expected Failure when every certification is refused"

let test_race_outer_stop () =
  let obedient stop =
    spin_until stop;
    raise Portfolio.Stopped
  in
  check "outer stop raises Stopped" true
    (match
       Portfolio.race
         ~stop:(fun () -> true)
         ~certify:(fun _ -> true)
         [ ("x", obedient); ("y", obedient) ]
     with
    | exception Portfolio.Stopped -> true
    | _ -> false)

let test_race_empty () =
  check "empty racer list refused" true
    (match Portfolio.race ~certify:(fun _ -> true) [] with
    | exception Invalid_argument _ -> true
    | _ -> false)

let test_race_error_propagates () =
  (* A racer crashing on its own (not via certify) is the race's error
     when nobody wins. *)
  check "racer error re-raised" true
    (match
       Portfolio.race
         ~certify:(fun _ -> true)
         [ ("boom", fun _ -> failwith "boom") ]
     with
    | exception Failure m -> m = "boom"
    | _ -> false)

(* ------------------------------------------------------------------ *)
(* Domain-count byte-identity through the pool                         *)
(* ------------------------------------------------------------------ *)

let test_domains_identity () =
  let tasks = 12 in
  let problem_of i = random_problem ~n:10 ~n_affinities:5 (1 + i) in
  let solve_all ~domains strategy =
    Pool.with_pool ~domains (fun pool ->
        Pool.run pool ~tasks (fun i ->
            let p = problem_of i in
            canon p (Strategies.run strategy p)))
  in
  List.iter
    (fun strategy ->
      let label = Strategies.name strategy in
      let reference = solve_all ~domains:1 strategy in
      let got = solve_all ~domains:4 strategy in
      Array.iteri
        (fun i r ->
          check_string
            (Printf.sprintf "%s domains=4 instance %d" label i)
            reference.(i) r)
        got)
    [ Strategies.Exact_backend "pb"; Strategies.Exact_backend "race" ]

(* A failing sibling task aborts the pool run and cancels in-flight
   races through the ambient probe; the race's Stopped unwind must not
   mask the real error. *)
let test_pool_abort_reports_real_error () =
  match
    Pool.with_pool ~domains:2 (fun pool ->
        Pool.run pool ~tasks:8 (fun i ->
            if i = 0 then failwith "task zero failed"
            else
              let p = random_problem ~n:10 ~n_affinities:5 (100 + i) in
              weight (Portfolio.conservative_race p)))
  with
  | exception Failure m when m = "task zero failed" -> ()
  | exception e ->
      Alcotest.failf "expected the task error, got %s" (Printexc.to_string e)
  | _ -> Alcotest.fail "expected the pool run to fail"

(* ------------------------------------------------------------------ *)
(* Provenance                                                          *)
(* ------------------------------------------------------------------ *)

let test_provenance () =
  let p = random_problem ~n:10 ~n_affinities:5 4 in
  let r =
    Strategies.evaluate_cfg Strategies.default_config
      (Strategies.Exact_backend "race")
      p
  in
  (match r.Strategies.provenance with
  | Some s ->
      check "provenance names the winner" true
        (contains s "race won by");
      (* Rendered by pp_report, never by the canonical printer. *)
      let full = Format.asprintf "%a" Strategies.pp_report r in
      let canonical = Format.asprintf "%a" Strategies.pp_report_canonical r in
      check "pp_report shows provenance" true
        (contains full "race won by");
      check "canonical rendering omits provenance" false
        (contains canonical "race won by")
  | None -> Alcotest.fail "expected race provenance on the report");
  let direct =
    Strategies.evaluate_cfg Strategies.default_config
      Strategies.Exact_conservative p
  in
  check "no provenance without a race" true
    (direct.Strategies.provenance = None)

(* ------------------------------------------------------------------ *)
(* Exact backends and spellings                                       *)
(* ------------------------------------------------------------------ *)

let test_spellings () =
  List.iter
    (fun (spelling, strategy) ->
      (match Strategies.of_string spelling with
      | Ok s ->
          check (spelling ^ " parses") true (s = strategy);
          check_string
            (spelling ^ " round-trips")
            spelling (Strategies.name s)
      | Error m -> Alcotest.failf "%s failed to parse: %s" spelling m);
      (* The single spelling table: name then of_string is identity. *)
      match Strategies.of_string (Strategies.name strategy) with
      | Ok s -> check (spelling ^ " name round-trips") true (s = strategy)
      | Error m -> Alcotest.failf "name round-trip failed: %s" m)
    [
      ("exact:pb", Strategies.Exact_backend "pb");
      ("exact:race", Strategies.Exact_backend "race");
      ("exact:bb", Strategies.Exact_backend "bb");
    ];
  match Strategies.of_string "exact" with
  | Ok Strategies.Exact_conservative -> ()
  | _ -> Alcotest.fail "exact must keep spelling the branch-and-bound"

let test_exact_backends_order () =
  Alcotest.(check (list string))
    "exact backends, in order" [ "bb"; "pb"; "race" ] Strategies.exact_backends

(* The set is closed: of_string takes exactly the three names, and any
   other exact:NAME — a typo, or the name of the static router, which
   is a routing mode and not a backend — is refused at parse time with
   the known names in the message. *)
let test_exact_spellings_closed () =
  List.iter
    (fun b ->
      match Strategies.of_string ("exact:" ^ b) with
      | Ok (Strategies.Exact_backend b') -> check_string ("exact:" ^ b) b b'
      | _ -> Alcotest.failf "exact:%s refused" b)
    [ "bb"; "pb"; "race" ];
  List.iter
    (fun spelling ->
      match Strategies.of_string spelling with
      | Ok _ -> Alcotest.failf "%s accepted" spelling
      | Error m ->
          List.iter
            (fun b ->
              check (spelling ^ " refusal lists " ^ b) true (contains m b))
            [ "bb"; "pb"; "race" ])
    [ "exact:nope"; "exact:static" ]

let test_unknown_backend () =
  let p = random_problem ~n:8 ~n_affinities:3 5 in
  match
    Strategies.run_cfg Strategies.default_config
      (Strategies.Exact_backend "nope")
      p
  with
  | exception Invalid_argument m ->
      check "requested name carried" true (contains m "\"nope\"");
      List.iter
        (fun b -> check (b ^ " listed as known") true (contains m b))
        [ "bb"; "pb"; "race" ]
  | _ -> Alcotest.fail "expected Invalid_argument"

let () =
  Alcotest.run "rc_portfolio"
    [
      ( "pb",
        [
          Alcotest.test_case "pb = bb byte-identity (200 seeds)" `Quick
            test_pb_differential;
          Alcotest.test_case "brute-force optimality oracle (60 seeds)" `Quick
            test_pb_oracle;
          Alcotest.test_case "non-greedy-k input refused" `Quick
            test_pb_precheck;
        ] );
      ( "race",
        [
          Alcotest.test_case "race = bb byte-identity + counters (100 seeds)"
            `Quick test_race_differential;
          Alcotest.test_case "no affinities, no race" `Quick
            test_race_no_affinities;
          Alcotest.test_case "monolithic instance refused (reach)" `Quick
            test_race_reach_refusal;
          Alcotest.test_case "clustered decomposition at scale" `Quick
            test_race_clustered_scale;
          Alcotest.test_case "10k preset: bb capped, race refuses and solves"
            `Quick test_race_10k_preset;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "winner cancels the loser" `Quick
            test_race_winner_cancels_loser;
          Alcotest.test_case "winner killed mid-certify, race answers" `Quick
            test_race_kill_winner_mid_certify;
          Alcotest.test_case "every certification refused is Failure" `Quick
            test_race_all_killed;
          Alcotest.test_case "outer stop raises Stopped" `Quick
            test_race_outer_stop;
          Alcotest.test_case "empty racer list refused" `Quick test_race_empty;
          Alcotest.test_case "racer error propagates" `Quick
            test_race_error_propagates;
        ] );
      ( "engine",
        [
          Alcotest.test_case "domains byte-identity" `Quick
            test_domains_identity;
          Alcotest.test_case "pool abort reports the real error" `Quick
            test_pool_abort_reports_real_error;
          Alcotest.test_case "race provenance on reports" `Quick
            test_provenance;
        ] );
      ( "registry",
        [
          Alcotest.test_case "spelling round-trips" `Quick test_spellings;
          Alcotest.test_case "exact backends, in order" `Quick
            test_exact_backends_order;
          Alcotest.test_case "of_string takes exactly bb|pb|race" `Quick
            test_exact_spellings_closed;
          Alcotest.test_case "unknown backend is Invalid_argument" `Quick
            test_unknown_backend;
        ] );
    ]
