(* Test-only oracle for [Rc_check.Certify.certify]: the certifier on
   persistent graphs it replaced.  It rebuilds the quotient edge by
   edge as a persistent graph, compares it set by set with the
   answer's merged graph, and peels the merged graph with the
   persistent greedy-k elimination ([Reference.Greedy_k]).  test_check
   demands the shipped array certifier report the same violations in
   the same order on heuristic answers and on every corruption class. *)

module Graph = Rc_graph.Graph
module Chordal = Rc_graph.Chordal
module Problem = Rc_core.Problem
open Rc_check.Certify

let certify ?(claims = []) (p : Problem.t) (a : answer) =
  let viols = ref [] in
  let add v = viols := v :: !viols in
  (match Problem.validate p with
  | Ok () -> ()
  | Error es -> List.iter (fun e -> add (Invalid_problem e)) es);
  (* The partition: vertex -> representative, rejecting overlaps and
     members outside the graph. *)
  let find_tbl = Hashtbl.create 64 in
  List.iter
    (fun (rep, members) ->
      if not (List.mem rep members) then add (Representative_outside_class rep);
      List.iter
        (fun m ->
          if not (Graph.mem_vertex p.graph m) then
            add (Unknown_class_member { rep; member = m })
          else if Hashtbl.mem find_tbl m then add (Vertex_in_two_classes m)
          else Hashtbl.replace find_tbl m rep)
        members)
    a.classes;
  let find v = Hashtbl.find_opt find_tbl v in
  List.iter
    (fun v -> if find v = None then add (Vertex_not_covered v))
    (Graph.vertices p.graph);
  (* No interference inside a class, and the merged graph is exactly the
     quotient: rebuild the quotient from scratch and compare both
     directions. *)
  let quotient = ref Graph.empty in
  Hashtbl.iter (fun _ rep -> quotient := Graph.add_vertex !quotient rep) find_tbl;
  Graph.fold_edges
    (fun u v () ->
      match (find u, find v) with
      | Some ru, Some rv when ru = rv ->
          add (Interference_inside_class { u; v; rep = ru })
      | Some ru, Some rv -> quotient := Graph.add_edge !quotient ru rv
      | _ -> ())
    p.graph ();
  let quotient = !quotient in
  List.iter
    (fun r ->
      if not (Graph.mem_vertex a.merged_graph r) then
        add (Missing_merged_vertex r))
    (Graph.vertices quotient);
  List.iter
    (fun v ->
      if not (Graph.mem_vertex quotient v) then add (Spurious_merged_vertex v))
    (Graph.vertices a.merged_graph);
  Graph.fold_edges
    (fun u v () ->
      if not (Graph.mem_edge a.merged_graph u v) then
        add (Missing_projected_edge { u; v }))
    quotient ();
  Graph.fold_edges
    (fun u v () ->
      if not (Graph.mem_edge quotient u v) then
        add (Spurious_merged_edge { u; v }))
    a.merged_graph ();
  (* Affinity classification: each problem affinity appears exactly once,
     in the list the partition dictates. *)
  let aff_tbl = Hashtbl.create 64 in
  List.iter
    (fun (aff : Problem.affinity) ->
      let coalesced =
        match (find aff.u, find aff.v) with
        | Some ru, Some rv -> ru = rv
        | _ -> false
      in
      Hashtbl.replace aff_tbl (aff.u, aff.v) (coalesced, ref false))
    p.affinities;
  let scan_list claimed_coalesced =
    List.iter (fun (aff : Problem.affinity) ->
        match Hashtbl.find_opt aff_tbl (aff.u, aff.v) with
        | None -> add (Affinity_unaccounted { u = aff.u; v = aff.v })
        | Some (expected, seen) ->
            if !seen then add (Affinity_unaccounted { u = aff.u; v = aff.v })
            else begin
              seen := true;
              if expected <> claimed_coalesced then
                add
                  (Misclassified_affinity
                     { u = aff.u; v = aff.v; claimed_coalesced })
            end)
  in
  scan_list true a.coalesced;
  scan_list false a.gave_up;
  List.iter
    (fun (aff : Problem.affinity) ->
      let _, seen = Hashtbl.find aff_tbl (aff.u, aff.v) in
      if not !seen then add (Affinity_unaccounted { u = aff.u; v = aff.v }))
    p.affinities;
  (* Removed-move weight, recomputed from the partition alone. *)
  let actual =
    List.fold_left
      (fun acc (aff : Problem.affinity) ->
        match (find aff.u, find aff.v) with
        | Some ru, Some rv when ru = rv -> acc + aff.weight
        | _ -> acc)
      0 p.affinities
  in
  if actual <> a.claimed_weight then
    add (Weight_mismatch { claimed = a.claimed_weight; actual });
  (* Claims, re-established on the persistent-graph kernels. *)
  List.iter
    (fun c ->
      match c with
      | Conservative ->
          if not (Reference.Greedy_k.is_greedy_k_colorable a.merged_graph p.k)
          then add (Not_conservative { k = p.k })
      | Chordality_preserved ->
          if
            Chordal.Reference.is_chordal p.graph
            && not (Chordal.Reference.is_chordal a.merged_graph)
          then add Chordality_lost)
    claims;
  { claims; violations = List.rev !viols }
