(* Differential suite for the single-pass chordal structures.

   Chordal.maximal_cliques and Clique_tree.build derive everything from
   one elimination pass (Chordal.peo): the follower rule picks the
   maximal cliques, and Kruskal takes its edges from weight buckets.
   This suite holds them to the straightforward construction kept in
   Clique_tree_oracle:

   - the same cliques in the same order, the same tree edges in the same
     order and the same vertex subtrees, on random chordal and interval
     graphs up to 200 vertices;
   - the same on every quotient graph a chordal-incremental run visits
     on Challenge.generate instances of all five presets, whole
     functions and single-region cuts, with and without move-aware
     interference;
   - byte-identical chordal-incremental solutions on those instances,
     pinned by digest;
   - the follower rule itself against subset enumeration (n <= 12).

   Every property prints a "[seeds] <name> <ran> <declared>" line. *)

module G = Rc_graph.Graph
module ISet = G.ISet
module Chordal = Rc_graph.Chordal
module Clique_tree = Rc_graph.Clique_tree
module Coloring = Rc_graph.Coloring
module Generators = Rc_graph.Generators
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Chordal_coalescing = Rc_core.Chordal_coalescing
module Strategies = Rc_core.Strategies
module Challenge = Rc_challenge.Challenge
module Oracle = Rc_oracle.Clique_tree_oracle

let run_seeds = Qcheck_gen.run_seeds

(* Fail-only checks: these run thousands of times per property, and
   alcotest's verbose mode would log every passing [check]. *)
let require what ok = if not ok then Alcotest.failf "%s" what

let require_int what want got =
  if want <> got then Alcotest.failf "%s: expected %d, got %d" what want got

let () =
  if Rc_check.Sanitize.install_if_enabled () then
    print_endline "test_chordal_equiv: kernel sanitizer enabled"

let pp_edges edges =
  String.concat " " (List.map (fun (i, j) -> Printf.sprintf "%d-%d" i j) edges)

(* The shipped cliques and tree of [g] against the oracle's, node by
   node; the clique number against the oracle's largest clique. *)
let assert_same_tree what g =
  let t = Clique_tree.build g and o = Oracle.clique_tree g in
  let cliques = Chordal.maximal_cliques g in
  require (what ^ ": maximal cliques, in order")
    (List.length cliques = Array.length o.Oracle.cliques
    && List.for_all2 ISet.equal cliques (Array.to_list o.Oracle.cliques));
  require_int (what ^ ": node count") (Array.length o.Oracle.cliques)
    (Clique_tree.num_nodes t);
  Array.iteri
    (fun i c ->
      if not (ISet.equal c (Clique_tree.clique t i)) then
        Alcotest.failf "%s: node %d differs from the oracle's clique" what i)
    o.Oracle.cliques;
  let got = Clique_tree.tree_edges t and want = Oracle.tree_edges o in
  if got <> want then
    Alcotest.failf "%s: tree edges [%s], oracle [%s]" what (pp_edges got)
      (pp_edges want);
  List.iter
    (fun v ->
      let want =
        Option.value (G.IMap.find_opt v o.Oracle.subtree) ~default:[]
      in
      if Clique_tree.nodes_of_vertex t v <> want then
        Alcotest.failf "%s: subtree of vertex %d differs" what v)
    (G.vertices g);
  let omega =
    Array.fold_left (fun m c -> max m (ISet.cardinal c)) 0 o.Oracle.cliques
  in
  require_int (what ^ ": Clique_tree.omega") omega (Clique_tree.omega t);
  require_int (what ^ ": Chordal.omega") omega (Chordal.omega g)

(* ------------------------------------------------------------------ *)
(* Random chordal and interval graphs                                  *)
(* ------------------------------------------------------------------ *)

(* Every fifth seed draws 100..200 vertices, the rest up to 60: the
   generator's cost grows fast with n. *)
let random_graph seed =
  let rng = Random.State.make [| seed; 0xc11 |] in
  let n =
    if seed mod 5 = 0 then 100 + Random.State.int rng 101
    else 1 + Random.State.int rng 60
  in
  if seed mod 3 = 0 then
    Generators.random_interval rng ~n ~span:(1 + Random.State.int rng (3 * n))
  else Generators.random_chordal rng ~n ~extra:(Random.State.int rng (n + 1))

let test_random_graphs () =
  run_seeds ~name:"random-chordal-vs-oracle" ~count:150 (fun seed ->
      let g = random_graph seed in
      let what = Printf.sprintf "seed %d (n=%d)" seed (G.num_vertices g) in
      assert_same_tree what g;
      let c = Chordal.color g in
      require (what ^ ": coloring valid") (Coloring.is_valid g c);
      require_int (what ^ ": coloring optimal") (Chordal.omega g)
        (Coloring.num_colors c))

let test_degenerate () =
  List.iter
    (fun (what, g) ->
      assert_same_tree what g)
    [
      ("empty", G.empty);
      ("one vertex", G.add_vertex G.empty 7);
      ("edgeless", List.fold_left G.add_vertex G.empty [ 3; 1; 4; 5; 9 ]);
      ("K5", G.clique 5);
      ("two triangles and an isolated vertex",
        G.add_vertex
          (G.of_edges [ (0, 1); (1, 2); (0, 2); (5, 6); (6, 7); (5, 7) ])
          11);
    ]

(* ------------------------------------------------------------------ *)
(* Quotient graphs of chordal-incremental runs                         *)
(* ------------------------------------------------------------------ *)

(* The preset shapes, whole and cut to one top-level region (the cut is
   skipped where a preset already has a single region). *)
let variants ~whole =
  List.filter_map
    (fun (name, (c : Rc_ir.Randprog.config)) ->
      if whole then Some (name ^ "/whole", c)
      else if c.regions > 1 then Some (name ^ "/region", { c with regions = 1 })
      else None)
    Challenge.presets

(* Generation dominates the properties below, and they share seeds. *)
let instances = Hashtbl.create 64

let instance ~config ~move_aware seed =
  let key = (config, move_aware, seed) in
  match Hashtbl.find_opt instances key with
  | Some p -> p
  | None ->
      let p = (Challenge.generate ~seed ~config ~move_aware ~k:6 ()).problem in
      Hashtbl.replace instances key p;
      p

(* Strategies' chordal-incremental loop, replayed so every quotient
   graph it decides on can be checked against the oracle first.  The
   final state must be the strategy's own answer. *)
let replay what (p : Problem.t) =
  let by_weight =
    List.sort
      (fun (a : Problem.affinity) b ->
        compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
      p.affinities
  in
  let visited = ref 0 in
  let st =
    List.fold_left
      (fun st (a : Problem.affinity) ->
        if Coalescing.same_class st a.u a.v then st
        else begin
          incr visited;
          let g = Coalescing.graph st in
          let what = Printf.sprintf "%s, quotient %d" what !visited in
          assert_same_tree what g;
          match Chordal_coalescing.coalesce_incrementally p st a with
          | Some st' -> st'
          | None -> st
        end)
      (Coalescing.initial p.graph) by_weight
  in
  let sol = Strategies.run Strategies.Chordal_incremental p in
  require (what ^ ": replay = strategy")
    (Coalescing.classes st = Coalescing.classes sol.Coalescing.state)

let quotient_property ~name ~whole ~count =
  run_seeds ~name ~count (fun seed ->
      List.iter
        (fun (vname, config) ->
          List.iter
            (fun move_aware ->
              let p = instance ~config ~move_aware seed in
              if Chordal.is_chordal p.graph then
                replay
                  (Printf.sprintf "%s seed %d move_aware=%b" vname seed
                     move_aware)
                  p)
            [ false; true ])
        (variants ~whole))

let test_region_quotients () =
  quotient_property ~name:"challenge-region-quotients-vs-oracle" ~whole:false
    ~count:12

let test_whole_quotients () =
  quotient_property ~name:"challenge-whole-quotients-vs-oracle" ~whole:true
    ~count:1

(* ------------------------------------------------------------------ *)
(* Pinned chordal-incremental answers                                  *)
(* ------------------------------------------------------------------ *)

let render (sol : Coalescing.solution) =
  let b = Buffer.create 256 in
  List.iter
    (fun (a : Problem.affinity) ->
      Printf.bprintf b "%d-%d:%d;" a.u a.v a.weight)
    sol.coalesced;
  Buffer.add_char b '|';
  List.iter
    (fun (r, ms) ->
      Printf.bprintf b "%d:%s;" r (String.concat "," (List.map string_of_int ms)))
    (Coalescing.classes sol.state);
  Buffer.add_char b '\n';
  Buffer.contents b

(* MD5 of the rendered chordal-incremental solutions over seeds
   1..[pinned_seeds], move-aware off then on, chordal instances only
   (the others fall back to brute force and never reach Theorem 5).
   They were produced by chordal-incremental running on the oracle's
   construction, when it was still the shipped one.  Should the
   generator's output change, recompute them only after running the
   quotient properties above over seeds 1..[pinned_seeds]: that ties
   the tree of every pinned decision to the oracle. *)
let pinned_seeds = 6

let pinned =
  [
    ("tiny/whole", "ce67a476db5f2bf679b1bef80a82703e");
    ("default/whole", "37019e7aec5d022ae863cd684f47aba3");
    ("branchy/whole", "d009a7526018b6086963483bea1086ba");
    ("loopy/whole", "8301b9ec3c0a502700396749c02948b7");
    ("wide/whole", "560e316a416e7e4b7869bce8421117a5");
    ("default/region", "458f259b09cda53960bb3d6ad3241932");
    ("branchy/region", "bfde19fded894cc9910c03073ef732de");
    ("loopy/region", "0b9aa25ff8c53ffe7dc731d6f0dffc2d");
    ("wide/region", "b153547a9ab1379a6a7b8f6b2392830f");
  ]

let test_pinned_solutions () =
  let digests = Hashtbl.create 16 in
  run_seeds ~name:"chordal-incremental-pinned-solutions" ~count:pinned_seeds
    (fun seed ->
      List.iter
        (fun (vname, config) ->
          List.iter
            (fun move_aware ->
              let p = instance ~config ~move_aware seed in
              if Chordal.is_chordal p.graph then begin
                let sol = Strategies.run Strategies.Chordal_incremental p in
                let prev =
                  Option.value (Hashtbl.find_opt digests vname) ~default:""
                in
                Hashtbl.replace digests vname (prev ^ render sol)
              end)
            [ false; true ])
        (variants ~whole:true @ variants ~whole:false));
  List.iter
    (fun (vname, want) ->
      let rendered = Option.value (Hashtbl.find_opt digests vname) ~default:"" in
      let got = Digest.to_hex (Digest.string rendered) in
      Alcotest.(check string) (vname ^ ": solution digest") want got)
    pinned

(* ------------------------------------------------------------------ *)
(* The follower rule against subset enumeration                        *)
(* ------------------------------------------------------------------ *)

(* C_p = {p} ∪ later(p) is kept iff it is a maximal clique; and the kept
   ones are exactly the graph's maximal cliques, each once. *)
let test_follower_rule () =
  run_seeds ~name:"follower-rule-vs-brute-force" ~count:300 (fun seed ->
      let rng = Random.State.make [| seed; 0xf011 |] in
      let n = 1 + Random.State.int rng 12 in
      let g =
        if seed mod 2 = 0 then
          Generators.random_chordal rng ~n ~extra:(Random.State.int rng (n + 1))
        else Generators.random_interval rng ~n ~span:(1 + Random.State.int rng (2 * n))
      in
      let brute = Oracle.brute_maximal_cliques g in
      let is_maximal c = List.exists (ISet.equal c) brute in
      match Chordal.peo g with
      | None -> Alcotest.failf "seed %d: generated graph is not chordal" seed
      | Some e ->
          let heads = Chordal.maximal_heads e in
          Array.iteri
            (fun p _ ->
              require
                (Printf.sprintf "seed %d: C_%d kept iff maximal" seed p)
                (is_maximal (Chordal.clique_at e p) = List.mem p heads))
            e.Chordal.vertices;
          let got = Chordal.maximal_cliques g in
          require_int
            (Printf.sprintf "seed %d: one clique per maximal clique" seed)
            (List.length brute) (List.length got);
          require
            (Printf.sprintf "seed %d: every maximal clique found" seed)
            (List.for_all (fun c -> List.exists (ISet.equal c) got) brute))

let () =
  Alcotest.run "chordal-equiv"
    [
      ( "clique-tree",
        [
          Alcotest.test_case "random graphs = oracle (150 seeds)" `Quick
            test_random_graphs;
          Alcotest.test_case "degenerate graphs = oracle" `Quick
            test_degenerate;
          Alcotest.test_case "follower rule = brute force (300 seeds)" `Quick
            test_follower_rule;
        ] );
      ( "chordal-incremental",
        [
          Alcotest.test_case "region quotients = oracle (12 seeds)" `Quick
            test_region_quotients;
          Alcotest.test_case "whole-function quotients = oracle (1 seed)"
            `Quick test_whole_quotients;
          Alcotest.test_case "pinned solutions (6 seeds)" `Quick
            test_pinned_solutions;
        ] );
    ]
