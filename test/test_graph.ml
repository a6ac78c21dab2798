(* Tests for the rc_graph substrate: Graph, Coloring, Greedy_k, Chordal,
   Clique_tree, Generators. *)

module G = Rc_graph.Graph
module ISet = G.ISet
module IMap = G.IMap
module Coloring = Rc_graph.Coloring
module Greedy_k = Rc_graph.Greedy_k
module Chordal = Rc_graph.Chordal
module Clique_tree = Rc_graph.Clique_tree
module Generators = Rc_graph.Generators
module Flat = Rc_graph.Flat

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Graph basics                                                        *)
(* ------------------------------------------------------------------ *)

let test_empty () =
  check_int "no vertices" 0 (G.num_vertices G.empty);
  check_int "no edges" 0 (G.num_edges G.empty);
  check_int "max vertex" (-1) (G.max_vertex G.empty);
  check "connected (vacuously)" true (G.is_connected G.empty)

let test_add_edge () =
  let g = G.add_edge G.empty 1 2 in
  check "edge present" true (G.mem_edge g 1 2);
  check "edge symmetric" true (G.mem_edge g 2 1);
  check "vertices implied" true (G.mem_vertex g 1 && G.mem_vertex g 2);
  check_int "degree" 1 (G.degree g 1);
  let g2 = G.add_edge g 1 2 in
  check_int "idempotent" 1 (G.num_edges g2)

let test_self_loop_rejected () =
  Alcotest.check_raises "self loop" (Invalid_argument "Graph.add_edge: self-loop")
    (fun () -> ignore (G.add_edge G.empty 3 3))

let test_remove_vertex () =
  let g = G.of_edges [ (0, 1); (1, 2); (0, 2) ] in
  let g = G.remove_vertex g 1 in
  check "vertex gone" false (G.mem_vertex g 1);
  check "incident edges gone" false (G.mem_edge g 0 1);
  check "other edge kept" true (G.mem_edge g 0 2);
  check_int "edges" 1 (G.num_edges g)

let test_remove_edge () =
  let g = G.of_edges [ (0, 1); (1, 2) ] in
  let g = G.remove_edge g 0 1 in
  check "edge gone" false (G.mem_edge g 0 1);
  check "vertices kept" true (G.mem_vertex g 0 && G.mem_vertex g 1);
  check "other edge" true (G.mem_edge g 1 2)

let test_merge () =
  (* path 0-1-2; merging 0 and 2 gives a single edge to 1 *)
  let g = G.of_edges [ (0, 1); (1, 2) ] in
  let g = G.merge g 0 2 in
  check "2 gone" false (G.mem_vertex g 2);
  check "edge inherited" true (G.mem_edge g 0 1);
  check_int "vertices" 2 (G.num_vertices g)

let test_merge_adjacent_rejected () =
  let g = G.of_edges [ (0, 1) ] in
  Alcotest.check_raises "adjacent merge"
    (Invalid_argument "Graph.merge: adjacent vertices") (fun () ->
      ignore (G.merge g 0 1))

let test_induced () =
  let g = G.of_edges [ (0, 1); (1, 2); (2, 3); (3, 0) ] in
  let h = G.induced g (ISet.of_list [ 0; 1; 2 ]) in
  check_int "vertices" 3 (G.num_vertices h);
  check_int "edges" 2 (G.num_edges h);
  check "edge 0-1" true (G.mem_edge h 0 1);
  check "edge 3-0 dropped" false (G.mem_vertex h 3)

let test_clique_cycle_path () =
  let c = G.clique 5 in
  check_int "K5 edges" 10 (G.num_edges c);
  check "K5 is clique" true (G.is_clique c (G.vertices c));
  let cy = G.cycle 6 in
  check_int "C6 edges" 6 (G.num_edges cy);
  List.iter (fun v -> check_int "C6 degree" 2 (G.degree cy v)) (G.vertices cy);
  let p = G.path 4 in
  check_int "P4 edges" 3 (G.num_edges p);
  check_int "P4 end degree" 1 (G.degree p 0)

let test_complement () =
  let g = G.of_edges [ (0, 1) ] in
  let g = G.add_vertex g 2 in
  let c = G.complement g in
  check "0-1 gone" false (G.mem_edge c 0 1);
  check "0-2 present" true (G.mem_edge c 0 2);
  check "1-2 present" true (G.mem_edge c 1 2)

let test_components () =
  let g = G.of_edges ~vertices:[ 9 ] [ (0, 1); (2, 3) ] in
  check_int "3 components" 3 (List.length (G.connected_components g));
  check "not connected" false (G.is_connected g);
  check "clique connected" true (G.is_connected (G.clique 4))

let test_union () =
  let g1 = G.of_edges [ (0, 1) ] and g2 = G.of_edges [ (1, 2) ] in
  let u = G.union g1 g2 in
  check "both edges" true (G.mem_edge u 0 1 && G.mem_edge u 1 2)

(* The row-at-a-time constructor: a path with an isolated vertex
   builds equal to the edge-by-edge graph, and every broken adjacency —
   including a one-sided entry whose mirror row is missing entirely — is
   refused. *)
let test_of_rows () =
  let rows l = G.of_rows (List.to_seq l) in
  check "equals add_edge build" true
    (G.equal
       (rows [ (1, [ 4 ]); (4, [ 9; 1 ]); (7, []); (9, [ 4 ]) ])
       (G.add_vertex (G.of_edges [ (1, 4); (4, 9) ]) 7));
  let refused what l =
    match rows l with
    | _ -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument _ -> ()
  in
  refused "out of order" [ (2, [ 1 ]); (1, [ 2 ]) ];
  refused "duplicate vertex" [ (1, []); (1, []) ];
  refused "self-loop" [ (1, [ 1 ]) ];
  refused "one-sided upper entry" [ (1, [ 2 ]); (2, []) ];
  refused "one-sided lower entry" [ (1, []); (2, [ 1 ]) ];
  refused "neighbour without a row" [ (1, [ 5 ]) ];
  refused "lower entry to a missing row" [ (3, [ 2 ]) ]

let test_map_vertices () =
  let g = G.of_edges [ (0, 1) ] in
  let h = G.map_vertices (fun v -> v + 10) g in
  check "relabeled edge" true (G.mem_edge h 10 11);
  check "old gone" false (G.mem_vertex h 0)

(* ------------------------------------------------------------------ *)
(* Coloring                                                            *)
(* ------------------------------------------------------------------ *)

let test_greedy_coloring () =
  let g = G.cycle 5 in
  let c = Coloring.greedy g (G.vertices g) in
  check "valid" true (Coloring.is_valid g c);
  check "at most 3 colors" true (Coloring.num_colors c <= 3)

let test_dsatur () =
  let g = G.clique 4 in
  let c = Coloring.dsatur g in
  check "valid" true (Coloring.is_valid g c);
  check_int "exactly 4" 4 (Coloring.num_colors c)

let test_k_colorable_exact () =
  check "K4 not 3-colorable" true (Coloring.k_colorable (G.clique 4) 3 = None);
  check "K4 4-colorable" true (Coloring.k_colorable (G.clique 4) 4 <> None);
  check "C5 not 2-colorable" true (Coloring.k_colorable (G.cycle 5) 2 = None);
  check "C5 3-colorable" true (Coloring.k_colorable (G.cycle 5) 3 <> None);
  check "C6 2-colorable" true (Coloring.k_colorable (G.cycle 6) 2 <> None)

let test_k_colorable_witness_valid () =
  let rng = Random.State.make [| 11 |] in
  for _ = 1 to 10 do
    let g = Generators.gnp rng ~n:9 ~p:0.4 in
    match Coloring.k_colorable g 4 with
    | Some c ->
        check "witness valid" true (Coloring.is_valid g c);
        check "within k" true (Coloring.num_colors c <= 4)
    | None -> ()
  done

let test_k_colorable_with_precoloring () =
  let g = G.of_edges [ (0, 1); (1, 2) ] in
  (* force both ends to color 0: the middle takes color 1 *)
  let pre = IMap.add 0 0 (IMap.singleton 2 0) in
  (match Coloring.k_colorable_with g 2 pre with
  | Some c ->
      check "respects precoloring" true
        (IMap.find 0 c = 0 && IMap.find 2 c = 0 && IMap.find 1 c = 1)
  | None -> Alcotest.fail "should be colorable");
  (* conflicting precoloring *)
  let bad = IMap.add 0 0 (IMap.singleton 1 0) in
  check "conflicting precoloring rejected" true
    (Coloring.k_colorable_with g 2 bad = None)

let test_chromatic_number () =
  check_int "K5" 5 (Coloring.chromatic_number (G.clique 5));
  check_int "C5" 3 (Coloring.chromatic_number (G.cycle 5));
  check_int "C6" 2 (Coloring.chromatic_number (G.cycle 6));
  check_int "P4" 2 (Coloring.chromatic_number (G.path 4));
  check_int "empty" 0 (Coloring.chromatic_number G.empty)

let test_is_valid_rejects () =
  let g = G.of_edges [ (0, 1) ] in
  check "missing vertex" false (Coloring.is_valid g (IMap.singleton 0 0));
  check "monochromatic edge" false
    (Coloring.is_valid g (IMap.add 1 0 (IMap.singleton 0 0)))

(* ------------------------------------------------------------------ *)
(* Greedy-k-colorability                                               *)
(* ------------------------------------------------------------------ *)

let test_greedy_k_basic () =
  check "K4 greedy-4" true (Greedy_k.is_greedy_k_colorable (G.clique 4) 4);
  check "K4 not greedy-3" false (Greedy_k.is_greedy_k_colorable (G.clique 4) 3);
  check "C5 greedy-3" true (Greedy_k.is_greedy_k_colorable (G.cycle 5) 3);
  check "C5 not greedy-2" false (Greedy_k.is_greedy_k_colorable (G.cycle 5) 2);
  check "empty greedy-1" true (Greedy_k.is_greedy_k_colorable G.empty 1)

let test_coloring_number () =
  check_int "K5" 5 (Greedy_k.coloring_number (G.clique 5));
  check_int "C6" 3 (Greedy_k.coloring_number (G.cycle 6));
  check_int "tree" 2
    (Greedy_k.coloring_number (G.of_edges [ (0, 1); (0, 2); (0, 3) ]));
  check_int "empty" 0 (Greedy_k.coloring_number G.empty)

let test_greedy_color_valid () =
  let g = G.cycle 6 in
  match Greedy_k.color g 3 with
  | Some c ->
      check "valid" true (Coloring.is_valid g c);
      check "within 3" true (Coloring.num_colors c <= 3)
  | None -> Alcotest.fail "C6 should be greedy-3-colorable"

let test_witness_subgraph () =
  (* K4 plus a pendant: residue for k=3 is exactly the K4 *)
  let g = G.add_edge (G.clique 4) 0 9 in
  (match Greedy_k.witness_subgraph g 3 with
  | Some w -> check "residue is K4" true (ISet.equal w (ISet.of_list [ 0; 1; 2; 3 ]))
  | None -> Alcotest.fail "K4 residue expected");
  check "no witness when colorable" true (Greedy_k.witness_subgraph g 4 = None)

let test_elimination_order_complete () =
  let g = G.path 5 in
  match Greedy_k.elimination_order g 2 with
  | Some order ->
      check_int "all vertices" 5 (List.length order);
      check "a permutation" true
        (List.sort_uniq compare order = G.vertices g)
  | None -> Alcotest.fail "paths are greedy-2-colorable"

(* Figure 3 (left): a size-4 permutation (parallel copy) with k = 6.
   The raw fragment (every vertex of degree 6 = k) is stuck for the
   greedy scheme, yet coalescing the four moves simultaneously yields a
   K4 of degree-3 vertices — greedy-6-colorable.  Coalescing one move in
   isolation produces a merged vertex of degree 6 = k. *)
let test_fig3_permutation () =
  let k = 6 in
  (* u1..u4 = 0..3, v1..v4 = 4..7; all u interfere pairwise, all v
     interfere pairwise, and ui interferes with vj for i <> j *)
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
  let g = !g in
  List.iter (fun v -> check_int "all degrees k" k (G.degree g v)) (G.vertices g);
  check "fragment itself is stuck for greedy-6" false
    (Greedy_k.is_greedy_k_colorable g k);
  check "but it is 6-colorable (even 4-colorable)" true
    (Coloring.k_colorable g 4 <> None);
  (* coalesce (u1, v1) alone: merged vertex has degree 6 = k *)
  let merged = G.merge g 0 4 in
  check_int "merged degree is k" k (G.degree merged 0);
  (* coalescing all four moves yields K4: greedy-6-colorable *)
  let all =
    List.fold_left (fun g i -> G.merge g i (4 + i)) g [ 0; 1; 2; 3 ]
  in
  check "all-coalesced is K4" true (G.equal all (G.clique 4));
  check "all coalesced greedy-6" true (Greedy_k.is_greedy_k_colorable all k)

(* ------------------------------------------------------------------ *)
(* Chordal                                                             *)
(* ------------------------------------------------------------------ *)

let test_chordal_basic () =
  check "K4 chordal" true (Chordal.is_chordal (G.clique 4));
  check "C4 not chordal" false (Chordal.is_chordal (G.cycle 4));
  check "C5 not chordal" false (Chordal.is_chordal (G.cycle 5));
  check "tree chordal" true
    (Chordal.is_chordal (G.of_edges [ (0, 1); (1, 2); (1, 3) ]));
  check "empty chordal" true (Chordal.is_chordal G.empty);
  (* C4 plus one chord is chordal *)
  check "C4+chord chordal" true
    (Chordal.is_chordal (G.add_edge (G.cycle 4) 0 2))

let test_peo_check () =
  let g = G.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  check "3,0,1,2 is a PEO" true
    (Chordal.is_perfect_elimination_order g [ 3; 0; 1; 2 ]);
  check "incomplete order rejected" false
    (Chordal.is_perfect_elimination_order g [ 0; 1 ]);
  (* in C4, no order is a PEO *)
  let c4 = G.cycle 4 in
  check "C4 has no PEO" false
    (Chordal.is_perfect_elimination_order c4 [ 0; 1; 2; 3 ])

let test_mcs_on_chordal_is_peo () =
  let rng = Random.State.make [| 21 |] in
  for _ = 1 to 20 do
    let g = Generators.random_chordal rng ~n:20 ~extra:8 in
    check "MCS order is a PEO" true
      (Chordal.is_perfect_elimination_order g (Chordal.mcs_order g))
  done

let test_simplicial () =
  let g = G.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let s = Chordal.simplicial_vertices g in
  check "0 simplicial" true (List.mem 0 s);
  check "3 simplicial" true (List.mem 3 s);
  check "2 not simplicial" false (List.mem 2 s)

let test_omega_and_color () =
  let g = G.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4); (2, 4) ] in
  check_int "omega" 3 (Chordal.omega g);
  let c = Chordal.color g in
  check "valid" true (Coloring.is_valid g c);
  check_int "optimal" 3 (Coloring.num_colors c)

let test_omega_rejects_non_chordal () =
  Alcotest.check_raises "non-chordal"
    (Invalid_argument "Chordal.omega: graph is not chordal") (fun () ->
      ignore (Chordal.omega (G.cycle 4)))

let test_maximal_cliques () =
  let g = G.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3) ] in
  let cliques = Chordal.maximal_cliques g in
  check_int "two cliques" 2 (List.length cliques);
  check "triangle found" true
    (List.exists (ISet.equal (ISet.of_list [ 0; 1; 2 ])) cliques);
  check "edge found" true
    (List.exists (ISet.equal (ISet.of_list [ 2; 3 ])) cliques)

let test_chordless_cycle_certificate () =
  (match Chordal.find_chordless_cycle (G.cycle 5) with
  | Some cyc ->
      check "length >= 4" true (List.length cyc >= 4);
      (* consecutive vertices adjacent, wrap-around included *)
      let arr = Array.of_list cyc in
      let n = Array.length arr in
      let g = G.cycle 5 in
      for i = 0 to n - 1 do
        check "cycle edge" true (G.mem_edge g arr.(i) arr.((i + 1) mod n))
      done;
      (* no chords *)
      for i = 0 to n - 1 do
        for j = i + 2 to n - 1 do
          if not (i = 0 && j = n - 1) then
            check "no chord" false (G.mem_edge g arr.(i) arr.(j))
        done
      done
  | None -> Alcotest.fail "C5 has a chordless cycle");
  check "chordal: no certificate" true
    (Chordal.find_chordless_cycle (G.clique 5) = None)

(* ------------------------------------------------------------------ *)
(* Clique tree                                                         *)
(* ------------------------------------------------------------------ *)

let test_clique_tree_small () =
  let g = G.of_edges [ (0, 1); (1, 2); (0, 2); (2, 3); (3, 4) ] in
  let t = Clique_tree.build g in
  check_int "three nodes" 3 (Clique_tree.num_nodes t);
  check "verified" true (Clique_tree.verify g t);
  check_int "forest edges" 2 (List.length (Clique_tree.tree_edges t))

let test_clique_tree_disconnected () =
  let g = G.of_edges [ (0, 1); (5, 6) ] in
  let t = Clique_tree.build g in
  check_int "two nodes" 2 (Clique_tree.num_nodes t);
  check_int "no edges (forest)" 0 (List.length (Clique_tree.tree_edges t));
  check "path across components" true
    (Clique_tree.path_between_vertices t 0 6 = None)

let test_clique_tree_random () =
  let rng = Random.State.make [| 31 |] in
  for _ = 1 to 15 do
    let g = Generators.random_chordal rng ~n:22 ~extra:8 in
    let t = Clique_tree.build g in
    check "verified" true (Clique_tree.verify g t)
  done

let test_path_between_vertices_trim () =
  (* chain of triangles: path of cliques; endpoints only in end cliques *)
  let g =
    G.of_edges
      [ (0, 1); (1, 2); (0, 2); (2, 3); (1, 3); (3, 4); (2, 4); (4, 5); (3, 5) ]
  in
  let t = Clique_tree.build g in
  match Clique_tree.path_between_vertices t 0 5 with
  | Some path ->
      check "starts with the only node containing 0" true
        (ISet.mem 0 (Clique_tree.clique t (List.hd path)));
      let last = List.nth path (List.length path - 1) in
      check "ends with the only node containing 5" true
        (ISet.mem 5 (Clique_tree.clique t last));
      (* interior nodes contain neither *)
      List.iteri
        (fun i n ->
          if i > 0 then check "no 0 inside" false (ISet.mem 0 (Clique_tree.clique t n));
          if i < List.length path - 1 then
            check "no 5 inside" false (ISet.mem 5 (Clique_tree.clique t n)))
        path
  | None -> Alcotest.fail "same component expected"

(* ------------------------------------------------------------------ *)
(* DOT export                                                          *)
(* ------------------------------------------------------------------ *)

let test_dot_output () =
  let g = G.of_edges [ (0, 1) ] in
  let s = Rc_graph.Dot.to_string ~name:"T" ~affinities:[ (0, 2) ] g in
  let contains needle =
    let nl = String.length needle and sl = String.length s in
    let rec go i = i + nl <= sl && (String.sub s i nl = needle || go (i + 1)) in
    go 0
  in
  check "header" true (contains "graph T {");
  check "edge" true (contains "n0 -- n1;");
  check "dotted affinity" true (contains "n0 -- n2 [style=dotted];");
  let labeled = Rc_graph.Dot.to_string ~labels:(fun v -> "v" ^ string_of_int v) g in
  let contains_l needle =
    let nl = String.length needle and sl = String.length labeled in
    let rec go i =
      i + nl <= sl && (String.sub labeled i nl = needle || go (i + 1))
    in
    go 0
  in
  check "custom label" true (contains_l "label=\"v0\"")

(* ------------------------------------------------------------------ *)
(* Interval cover (Figure 5's marking process, standalone)             *)
(* ------------------------------------------------------------------ *)

module Interval_cover = Rc_graph.Interval_cover

let iv lo hi tag = { Interval_cover.lo; hi; tag }

let test_interval_cover_basic () =
  (* [0,0] source, [3,3] target, bridge via [1,2] *)
  let got =
    Interval_cover.solve ~len:4 ~source:(iv 0 0 100) ~target:(iv 3 3 101)
      [ iv 1 2 1 ]
  in
  (match got with
  | Some chain ->
      check "chain covers" true
        (List.map (fun (i : Interval_cover.interval) -> i.tag) chain
        = [ 100; 1; 101 ])
  | None -> Alcotest.fail "cover expected");
  (* no bridge: unsolvable *)
  check "gap unsolvable" false
    (Interval_cover.solvable ~len:4 ~source:(iv 0 0 100) ~target:(iv 3 3 101)
       [ iv 1 1 1 ]);
  (* overlapping bridge cannot be used *)
  check "overlap unsolvable" false
    (Interval_cover.solvable ~len:4 ~source:(iv 0 0 100) ~target:(iv 3 3 101)
       [ iv 0 2 1 ])

let test_interval_cover_figure5 () =
  (* the spirit of Figure 5: same interval family, two queries; one
     succeeds, the other (with the bridging interval shifted) fails *)
  let solvable intervals =
    Interval_cover.solvable ~len:6 ~source:(iv 0 0 100) ~target:(iv 5 5 101)
      intervals
  in
  check "left drawing: no cover" false
    (solvable [ iv 1 3 1; iv 3 4 2; iv 2 4 3 ]);
  check "right drawing: cover" true
    (solvable [ iv 1 2 1; iv 3 4 2; iv 2 4 3 ])

let test_interval_cover_validation () =
  check "bad source" true
    (try
       ignore
         (Interval_cover.solve ~len:4 ~source:(iv 1 1 0) ~target:(iv 3 3 1) []);
       false
     with Invalid_argument _ -> true);
  check "bad bounds" true
    (try
       ignore
         (Interval_cover.solve ~len:4 ~source:(iv 0 0 0) ~target:(iv 3 3 1)
            [ iv 2 9 2 ]);
       false
     with Invalid_argument _ -> true)

let prop_interval_cover_vs_brute =
  QCheck.Test.make ~name:"interval cover marking = brute force" ~count:300
    QCheck.(pair (2 -- 8) (list_of_size Gen.(0 -- 6) (pair (0 -- 7) (0 -- 7))))
    (fun (len, raw) ->
      let source = iv 0 0 1000 and target = iv (len - 1) (len - 1) 1001 in
      let others =
        List.mapi
          (fun idx (a, b) ->
            let lo = min a b mod len and hi = max a b mod len in
            iv (min lo hi) (max lo hi) idx)
          raw
      in
      (* keep only in-bounds intervals *)
      let others =
        List.filter
          (fun (i : Interval_cover.interval) ->
            i.lo >= 0 && i.hi < len && i.lo <= i.hi)
          others
      in
      Interval_cover.solvable ~len ~source ~target others
      = Interval_cover.brute_force ~len ~source ~target others)

let prop_interval_cover_chain_valid =
  QCheck.Test.make ~name:"returned chains are disjoint contiguous covers"
    ~count:300
    QCheck.(pair (2 -- 8) (list_of_size Gen.(0 -- 6) (pair (0 -- 7) (0 -- 7))))
    (fun (len, raw) ->
      let source = iv 0 0 1000 and target = iv (len - 1) (len - 1) 1001 in
      let others =
        List.mapi
          (fun idx (a, b) ->
            let lo = min a b mod len and hi = max a b mod len in
            iv (min lo hi) (max lo hi) idx)
          raw
        |> List.filter (fun (i : Interval_cover.interval) ->
               i.lo >= 0 && i.hi < len && i.lo <= i.hi)
      in
      match Interval_cover.solve ~len ~source ~target others with
      | None -> true
      | Some chain ->
          let rec contiguous = function
            | (a : Interval_cover.interval) :: (b :: _ as rest) ->
                a.hi + 1 = b.lo && contiguous rest
            | [ last ] -> last.hi = len - 1
            | [] -> false
          in
          (match chain with
          | first :: _ -> first.lo = 0 && contiguous chain
          | [] -> false)
          && (List.hd chain).tag = 1000
          && (List.nth chain (List.length chain - 1)).tag = 1001)

(* ------------------------------------------------------------------ *)
(* Generators                                                          *)
(* ------------------------------------------------------------------ *)

let test_generators_shapes () =
  let rng = Random.State.make [| 41 |] in
  let g = Generators.gnp rng ~n:30 ~p:0.2 in
  check_int "gnp vertices" 30 (G.num_vertices g);
  let t = Generators.random_tree rng ~n:25 in
  check_int "tree edges" 24 (G.num_edges t);
  check "tree connected" true (G.is_connected t);
  let b = Generators.random_bounded_degree rng ~n:20 ~max_degree:3 ~edges:25 in
  check "degree bound" true
    (List.for_all (fun v -> G.degree b v <= 3) (G.vertices b))

let test_random_chordal_is_chordal () =
  let rng = Random.State.make [| 43 |] in
  for _ = 1 to 10 do
    check "chordal by construction" true
      (Chordal.is_chordal (Generators.random_chordal rng ~n:25 ~extra:10))
  done

let test_random_interval_is_chordal () =
  let rng = Random.State.make [| 44 |] in
  for _ = 1 to 10 do
    check "interval graphs chordal" true
      (Chordal.is_chordal (Generators.random_interval rng ~n:20 ~span:30))
  done

let test_random_k_colorable () =
  let rng = Random.State.make [| 45 |] in
  for _ = 1 to 10 do
    let g = Generators.random_k_colorable rng ~n:14 ~k:3 ~p:0.5 in
    check "3-colorable by construction" true (Coloring.k_colorable g 3 <> None)
  done

(* ------------------------------------------------------------------ *)
(* Property-based tests                                                *)
(* ------------------------------------------------------------------ *)

let gnp_arbitrary =
  QCheck.make
    ~print:(fun (seed, n, p) -> Printf.sprintf "seed=%d n=%d p=%.2f" seed n p)
    QCheck.Gen.(
      map
        (fun (s, n, p) -> (s, 4 + (n mod 20), float_of_int (p mod 10) /. 10.))
        (triple nat nat nat))

let prop_greedy_monotone =
  QCheck.Test.make ~name:"greedy-k implies greedy-(k+1)" ~count:100
    gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.gnp rng ~n ~p in
      let col = Greedy_k.coloring_number g in
      Greedy_k.is_greedy_k_colorable g col
      && ((col <= 1) || not (Greedy_k.is_greedy_k_colorable g (col - 1)))
      && Greedy_k.is_greedy_k_colorable g (col + 1))

let prop_greedy_k_implies_k_colorable =
  QCheck.Test.make ~name:"greedy-k-colorable implies k-colorable" ~count:60
    gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed |] in
      let g = Generators.gnp rng ~n:(min n 12) ~p in
      let col = Greedy_k.coloring_number g in
      col = 0 || Coloring.k_colorable g col <> None)

(* Property 1 of the paper: a k-colorable chordal graph is
   greedy-k-colorable. *)
let prop_property1 =
  QCheck.Test.make ~name:"Property 1: chordal & k-colorable => greedy-k" ~count:100
    QCheck.(pair small_nat small_nat)
    (fun (seed, extra) ->
      let rng = Random.State.make [| seed; 97 |] in
      let g = Generators.random_chordal rng ~n:18 ~extra:(4 + (extra mod 10)) in
      let w = if G.num_vertices g = 0 then 0 else Chordal.omega g in
      (* chordal graphs are w-colorable; so they must be greedy-w *)
      w = 0 || Greedy_k.is_greedy_k_colorable g w)

let prop_mcs_iff_chordal =
  QCheck.Test.make ~name:"MCS order is a PEO iff graph is chordal" ~count:100
    gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 3 |] in
      let g = Generators.gnp rng ~n ~p in
      Chordal.is_perfect_elimination_order g (Chordal.mcs_order g)
      = Chordal.is_chordal g)

let prop_chordless_cycle_iff_not_chordal =
  QCheck.Test.make ~name:"chordless cycle certificate iff not chordal" ~count:60
    gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 5 |] in
      let g = Generators.gnp rng ~n:(min n 12) ~p in
      (Chordal.find_chordless_cycle g <> None) = not (Chordal.is_chordal g))

let prop_merge_preserves_others =
  QCheck.Test.make ~name:"merge keeps non-incident edges" ~count:100
    gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 7 |] in
      let g = Generators.gnp rng ~n ~p in
      let vs = G.vertices g in
      match vs with
      | u :: v :: _ when not (G.mem_edge g u v) ->
          let m = G.merge g u v in
          G.fold_edges
            (fun a b ok ->
              ok && if a <> u && b <> u then G.mem_edge g a b else true)
            m true
      | _ -> true)

let prop_dsatur_valid =
  QCheck.Test.make ~name:"DSATUR always yields a valid coloring" ~count:100
    gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 9 |] in
      let g = Generators.gnp rng ~n ~p in
      Coloring.is_valid g (Coloring.dsatur g))

let prop_clique_tree_verifies =
  QCheck.Test.make ~name:"clique trees satisfy all invariants" ~count:60
    QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed; 11 |] in
      let g = Generators.random_chordal rng ~n:16 ~extra:6 in
      Clique_tree.verify g (Clique_tree.build g))

let prop_coloring_number_vs_chromatic =
  QCheck.Test.make ~name:"chromatic <= coloring number" ~count:40
    QCheck.small_nat (fun seed ->
      let rng = Random.State.make [| seed; 13 |] in
      let g = Generators.gnp rng ~n:10 ~p:0.35 in
      Coloring.chromatic_number g <= max 1 (Greedy_k.coloring_number g))

(* ------------------------------------------------------------------ *)
(* Flat kernel: mirrors, equivalence with the persistent paths, and    *)
(* the undo log                                                        *)
(* ------------------------------------------------------------------ *)

let graph_equal g1 g2 =
  G.vertices g1 = G.vertices g2
  && G.num_edges g1 = G.num_edges g2
  && G.fold_edges (fun u v ok -> ok && G.mem_edge g2 u v) g1 true

let test_flat_mirror () =
  let rng = Random.State.make [| 91 |] in
  for _ = 1 to 10 do
    let g = Generators.gnp rng ~n:30 ~p:0.2 in
    let f = Flat.of_graph g in
    Flat.check_invariants f;
    check_int "num_live" (G.num_vertices g) (Flat.num_live f);
    Alcotest.(check int) "num_edges" (G.num_edges g) (Flat.num_edges f);
    List.iter
      (fun v ->
        let i = Flat.index f v in
        check_int "label round-trip" v (Flat.label f i);
        Alcotest.(check int) "degree" (G.degree g v) (Flat.degree f i);
        G.ISet.iter
          (fun w ->
            Alcotest.(check bool) "edge mirrored" true
              (Flat.mem_edge f i (Flat.index f w)))
          (G.neighbors g v))
      (G.vertices g);
    Alcotest.(check bool) "to_graph round-trip" true
      (graph_equal g (Flat.to_graph f))
  done

let test_flat_mutations_mirror_graph () =
  (* The same mutation script on both representations stays in sync. *)
  let rng = Random.State.make [| 92 |] in
  for _ = 1 to 10 do
    let g = ref (Generators.gnp rng ~n:16 ~p:0.25) in
    let f = Flat.of_graph !g in
    for _ = 1 to 40 do
      let cap = Flat.capacity f in
      let u = Random.State.int rng cap and v = Random.State.int rng cap in
      if u <> v && Flat.is_live f u && Flat.is_live f v then begin
        let lu = Flat.label f u and lv = Flat.label f v in
        match Random.State.int rng 4 with
        | 0 ->
            Flat.add_edge f u v;
            g := G.add_edge !g lu lv
        | 1 ->
            Flat.remove_edge f u v;
            g := G.remove_edge !g lu lv
        | 2 when not (Flat.mem_edge f u v) ->
            Flat.merge f u v;
            g := G.merge !g lu lv
        | _ ->
            Flat.remove_vertex f u;
            g := G.remove_vertex !g lu
      end
    done;
    Flat.check_invariants f;
    Alcotest.(check bool) "still mirrors" true (graph_equal !g (Flat.to_graph f))
  done

let test_flat_rollback_nested () =
  let rng = Random.State.make [| 93 |] in
  let g = Generators.gnp rng ~n:12 ~p:0.3 in
  let f = Flat.of_graph g in
  let c1 = Flat.checkpoint f in
  Flat.remove_vertex f 0;
  let mid = Flat.to_graph f in
  let c2 = Flat.checkpoint f in
  Flat.remove_vertex f 1;
  (if not (Flat.mem_edge f 2 3) then Flat.merge f 2 3);
  Flat.rollback f c2;
  Flat.check_invariants f;
  Alcotest.(check bool) "inner rollback -> mid state" true
    (graph_equal mid (Flat.to_graph f));
  Flat.rollback f c1;
  Flat.check_invariants f;
  Alcotest.(check bool) "outer rollback -> original" true
    (graph_equal g (Flat.to_graph f));
  (* release keeps mutations *)
  let c3 = Flat.checkpoint f in
  Flat.remove_vertex f 0;
  let after = Flat.to_graph f in
  Flat.release f c3;
  Alcotest.(check bool) "release keeps mutations" true
    (graph_equal after (Flat.to_graph f))

(* Verdict agreement between the flat kernel and the pre-flat reference
   implementations: >= 200 random graphs each for greedy-k and
   chordality (the ISSUE's equivalence bar). *)
let prop_flat_greedy_k_agrees =
  QCheck.Test.make ~name:"flat greedy-k verdicts = reference verdicts"
    ~count:200 gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 17 |] in
      let g = Generators.gnp rng ~n ~p in
      let col_ref = Rc_oracle.Reference.Greedy_k.coloring_number g in
      Greedy_k.coloring_number g = col_ref
      && List.for_all
           (fun k ->
             Greedy_k.is_greedy_k_colorable g k
             = Rc_oracle.Reference.Greedy_k.is_greedy_k_colorable g k)
           [ 1; 2; max 1 (col_ref - 1); col_ref; col_ref + 1 ])

let prop_flat_chordal_agrees =
  QCheck.Test.make ~name:"flat chordality verdicts = reference verdicts"
    ~count:200 gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 19 |] in
      let g = Generators.gnp rng ~n ~p in
      Chordal.is_chordal g = Chordal.Reference.is_chordal g
      && Chordal.is_perfect_elimination_order g (Chordal.mcs_order g)
         = Chordal.Reference.is_perfect_elimination_order g
             (Chordal.Reference.mcs_order g))

let prop_flat_elimination_order_valid =
  QCheck.Test.make ~name:"flat elimination order is a valid greedy order"
    ~count:100 gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 23 |] in
      let g = Generators.gnp rng ~n ~p in
      let k = Greedy_k.coloring_number g in
      match Greedy_k.elimination_order g k with
      | None -> k > 0
      | Some order ->
          (* Replaying the order on the persistent graph: every removed
             vertex must have degree < k at its turn. *)
          List.length order = G.num_vertices g
          && fst
               (List.fold_left
                  (fun (ok, h) v ->
                    (ok && G.degree h v < k, G.remove_vertex h v))
                  (true, g) order))

let prop_flat_merge_rollback_roundtrip =
  QCheck.Test.make ~name:"random merge scripts roll back exactly" ~count:100
    gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 29 |] in
      let g = Generators.gnp rng ~n ~p in
      let f = Flat.of_graph g in
      let cap = Flat.capacity f in
      let c = Flat.checkpoint f in
      for _ = 1 to 30 do
        if cap > 1 then begin
          let u = Random.State.int rng cap and v = Random.State.int rng cap in
          if u <> v && Flat.is_live f u && Flat.is_live f v then
            match Random.State.int rng 4 with
            | 0 -> Flat.add_edge f u v
            | 1 -> Flat.remove_edge f u v
            | 2 when not (Flat.mem_edge f u v) -> Flat.merge f u v
            | _ -> Flat.remove_vertex f u
        end
      done;
      Flat.check_invariants f;
      Flat.rollback f c;
      Flat.check_invariants f;
      graph_equal g (Flat.to_graph f))

(* Checkpoint stress: random scripts interleaving mutations with nested
   checkpoint pushes, rollbacks and releases, shadowed by a persistent
   replay.  Every rollback must restore the exact graph saved when its
   checkpoint was taken, and [checkpoint_depth] must track the scope
   stack through arbitrary interleavings. *)
let prop_flat_checkpoint_stress =
  QCheck.Test.make ~name:"nested checkpoint scripts match persistent replay"
    ~count:100 gnp_arbitrary (fun (seed, n, p) ->
      let rng = Random.State.make [| seed; 31 |] in
      let g0 = Generators.gnp rng ~n ~p in
      let f = Flat.of_graph g0 in
      let cap = Flat.capacity f in
      (* shadow of the current flat contents *)
      let g = ref g0 in
      (* open scopes, innermost first: checkpoint + graph at push time *)
      let stack = ref [] in
      let ok = ref (Flat.checkpoint_depth f = 0) in
      let mutate () =
        if cap > 1 then begin
          let u = Random.State.int rng cap and v = Random.State.int rng cap in
          if u <> v && Flat.is_live f u && Flat.is_live f v then begin
            let lu = Flat.label f u and lv = Flat.label f v in
            match Random.State.int rng 4 with
            | 0 ->
                Flat.add_edge f u v;
                g := G.add_edge !g lu lv
            | 1 ->
                Flat.remove_edge f u v;
                g := G.remove_edge !g lu lv
            | 2 when not (Flat.mem_edge f u v) ->
                Flat.merge f u v;
                g := G.merge !g lu lv
            | _ ->
                Flat.remove_vertex f u;
                g := G.remove_vertex !g lu
          end
        end
      in
      for _ = 1 to 60 do
        (match Random.State.int rng 5 with
        | 0 | 1 -> mutate ()
        | 2 -> stack := (Flat.checkpoint f, !g) :: !stack
        | 3 -> (
            match !stack with
            | [] -> mutate ()
            | (c, saved) :: rest ->
                Flat.rollback f c;
                Flat.check_invariants f;
                ok := !ok && graph_equal saved (Flat.to_graph f);
                g := saved;
                stack := rest)
        | _ -> (
            match !stack with
            | [] -> mutate ()
            | (c, _) :: rest ->
                (* releasing keeps the mutations of the innermost scope *)
                Flat.release f c;
                Flat.check_invariants f;
                ok := !ok && graph_equal !g (Flat.to_graph f);
                stack := rest));
        ok := !ok && Flat.checkpoint_depth f = List.length !stack
      done;
      (* unwind every scope still open; each must restore its snapshot *)
      List.iter
        (fun (c, saved) ->
          Flat.rollback f c;
          Flat.check_invariants f;
          ok := !ok && graph_equal saved (Flat.to_graph f);
          g := saved)
        !stack;
      !ok && Flat.checkpoint_depth f = 0)

let () =
  let qc = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "rc_graph"
    [
      ( "graph",
        [
          Alcotest.test_case "empty" `Quick test_empty;
          Alcotest.test_case "add_edge" `Quick test_add_edge;
          Alcotest.test_case "self-loop rejected" `Quick test_self_loop_rejected;
          Alcotest.test_case "remove_vertex" `Quick test_remove_vertex;
          Alcotest.test_case "remove_edge" `Quick test_remove_edge;
          Alcotest.test_case "merge" `Quick test_merge;
          Alcotest.test_case "merge adjacent rejected" `Quick
            test_merge_adjacent_rejected;
          Alcotest.test_case "induced" `Quick test_induced;
          Alcotest.test_case "clique/cycle/path" `Quick test_clique_cycle_path;
          Alcotest.test_case "complement" `Quick test_complement;
          Alcotest.test_case "components" `Quick test_components;
          Alcotest.test_case "union" `Quick test_union;
          Alcotest.test_case "map_vertices" `Quick test_map_vertices;
          Alcotest.test_case "of_rows" `Quick test_of_rows;
        ] );
      ( "coloring",
        [
          Alcotest.test_case "greedy" `Quick test_greedy_coloring;
          Alcotest.test_case "dsatur" `Quick test_dsatur;
          Alcotest.test_case "exact k-colorable" `Quick test_k_colorable_exact;
          Alcotest.test_case "witness validity" `Quick
            test_k_colorable_witness_valid;
          Alcotest.test_case "precoloring" `Quick
            test_k_colorable_with_precoloring;
          Alcotest.test_case "chromatic number" `Quick test_chromatic_number;
          Alcotest.test_case "is_valid rejects" `Quick test_is_valid_rejects;
        ] );
      ( "greedy_k",
        [
          Alcotest.test_case "basics" `Quick test_greedy_k_basic;
          Alcotest.test_case "coloring number" `Quick test_coloring_number;
          Alcotest.test_case "color validity" `Quick test_greedy_color_valid;
          Alcotest.test_case "witness subgraph" `Quick test_witness_subgraph;
          Alcotest.test_case "elimination order" `Quick
            test_elimination_order_complete;
          Alcotest.test_case "fig3: permutation counterexample" `Quick
            test_fig3_permutation;
        ] );
      ( "chordal",
        [
          Alcotest.test_case "basics" `Quick test_chordal_basic;
          Alcotest.test_case "PEO check" `Quick test_peo_check;
          Alcotest.test_case "MCS gives PEO on chordal" `Quick
            test_mcs_on_chordal_is_peo;
          Alcotest.test_case "simplicial vertices" `Quick test_simplicial;
          Alcotest.test_case "omega and coloring" `Quick test_omega_and_color;
          Alcotest.test_case "omega rejects non-chordal" `Quick
            test_omega_rejects_non_chordal;
          Alcotest.test_case "maximal cliques" `Quick test_maximal_cliques;
          Alcotest.test_case "chordless cycle certificate" `Quick
            test_chordless_cycle_certificate;
        ] );
      ( "clique_tree",
        [
          Alcotest.test_case "small" `Quick test_clique_tree_small;
          Alcotest.test_case "disconnected" `Quick test_clique_tree_disconnected;
          Alcotest.test_case "random verified" `Quick test_clique_tree_random;
          Alcotest.test_case "path trimming" `Quick
            test_path_between_vertices_trim;
        ] );
      ("dot", [ Alcotest.test_case "export" `Quick test_dot_output ]);
      ( "interval_cover",
        [
          Alcotest.test_case "basic" `Quick test_interval_cover_basic;
          Alcotest.test_case "figure 5" `Quick test_interval_cover_figure5;
          Alcotest.test_case "validation" `Quick test_interval_cover_validation;
        ] );
      ( "generators",
        [
          Alcotest.test_case "shapes" `Quick test_generators_shapes;
          Alcotest.test_case "random chordal" `Quick
            test_random_chordal_is_chordal;
          Alcotest.test_case "random interval" `Quick
            test_random_interval_is_chordal;
          Alcotest.test_case "random k-colorable" `Quick test_random_k_colorable;
        ] );
      ( "flat",
        Alcotest.
          [
            test_case "mirror of persistent graph" `Quick test_flat_mirror;
            test_case "mutation scripts stay in sync" `Quick
              test_flat_mutations_mirror_graph;
            test_case "nested checkpoint/rollback/release" `Quick
              test_flat_rollback_nested;
          ]
        @ qc
            [
              prop_flat_greedy_k_agrees;
              prop_flat_chordal_agrees;
              prop_flat_elimination_order_valid;
              prop_flat_merge_rollback_roundtrip;
              prop_flat_checkpoint_stress;
            ] );
      ( "properties",
        qc
          [
            prop_greedy_monotone;
            prop_greedy_k_implies_k_colorable;
            prop_property1;
            prop_mcs_iff_chordal;
            prop_chordless_cycle_iff_not_chordal;
            prop_merge_preserves_others;
            prop_dsatur_valid;
            prop_clique_tree_verifies;
            prop_coloring_number_vs_chromatic;
            prop_interval_cover_vs_brute;
            prop_interval_cover_chain_valid;
          ] );
    ]
