module Flat = Rc_graph.Flat
module Spec = Coalescing.Speculation

let by_weight affinities =
  List.sort
    (fun (a : Problem.affinity) b ->
      compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
    affinities

(* The greedy pass loop on a speculation context: same order, same
   winner convention (the first endpoint's representative survives) as
   the historical persistent loop, so committed classes are identical —
   but each merge is O(row ops) on the flat mirror instead of a
   persistent graph surgery. *)
let greedy_pass spec affinities =
  let f = Spec.flat spec in
  let rec pass pending =
    let kept, progress =
      List.fold_left
        (fun (kept, progress) (a : Problem.affinity) ->
          let iu = Spec.repr spec a.u and iv = Spec.repr spec a.v in
          if iu = iv then (kept, progress)
          else if Flat.mem_edge f iu iv then (a :: kept, progress)
          else begin
            Spec.merge_roots spec iu iv;
            (kept, true)
          end)
        ([], false) pending
    in
    if progress then pass (List.rev kept)
  in
  pass (by_weight affinities)

let coalesce_state st affinities =
  let spec = Spec.of_state st in
  greedy_pass spec affinities;
  Spec.commit spec

let coalesce (p : Problem.t) =
  let st = coalesce_state (Coalescing.initial p.graph) p.affinities in
  Coalescing.solution_of_state p st

let all_coalescable (p : Problem.t) =
  let st = coalesce_state (Coalescing.initial p.graph) p.affinities in
  if
    List.for_all
      (fun (a : Problem.affinity) -> Coalescing.same_class st a.u a.v)
      p.affinities
  then Some st
  else None
