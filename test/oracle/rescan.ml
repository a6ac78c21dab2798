(* Test-only rescan specifications of the conservative searches.

   [conservative] is the worklist fixpoint of Section 4 spelled out
   literally: every pass tries every still-open affinity by decreasing
   weight, and the loop stops when a pass coalesces nothing.  [set]
   runs that fixpoint between full enumerations of the candidate sets.
   The library computes the same fixpoints on the incremental engine
   (Conservative.Engine and its Rule_cache) and prunes the pair
   enumeration; test_incremental demands the identical merge sequence,
   and bench K5 times the engine against [conservative]. *)

module Greedy_k = Rc_graph.Greedy_k
module Flat = Rc_graph.Flat
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Conservative = Rc_core.Conservative
module Set_coalescing = Rc_core.Set_coalescing
module Spec = Coalescing.Speculation

(* Does merging the class roots [iu], [iv] keep the graph
   greedy-k-colorable according to the rule?  On acceptance the merge
   is applied to the speculation context. *)
let test_and_merge rule ~k spec iu iv =
  match rule with
  | Conservative.Brute_force ->
      let m = Spec.mark spec in
      Spec.merge_roots spec iu iv;
      if Greedy_k.flat_is_greedy_k_colorable (Spec.flat spec) k then begin
        Spec.release spec m;
        true
      end
      else begin
        Spec.rollback spec m;
        false
      end
  | rule ->
      let accept = Conservative.local_test rule (Spec.flat spec) ~k iu iv in
      if accept then Spec.merge_roots spec iu iv;
      accept

let fixpoint rule ~k spec affinities =
  let f = Spec.flat spec in
  let by_weight =
    List.sort
      (fun (a : Problem.affinity) b ->
        compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
      affinities
  in
  let rec pass pending =
    let kept, progress =
      List.fold_left
        (fun (kept, progress) (a : Problem.affinity) ->
          let iu = Spec.repr spec a.u and iv = Spec.repr spec a.v in
          if iu = iv then (kept, progress)
          else if Flat.mem_edge f iu iv then (a :: kept, progress)
          else if test_and_merge rule ~k spec iu iv then (kept, true)
          else (a :: kept, progress))
        ([], false) pending
    in
    if progress then pass (List.rev kept)
  in
  pass by_weight

let conservative_state rule ~k st affinities =
  let spec = Spec.of_state st in
  fixpoint rule ~k spec affinities;
  Spec.commit spec

let conservative rule (p : Problem.t) =
  Coalescing.solution_of_state p
    (conservative_state rule ~k:p.k
       (Coalescing.initial p.graph)
       p.affinities)

(* Optimistic coalescing with its phase-3 re-coalescing on the rescan
   fixpoint; phases 1 and 2 are the library's. *)
let optimistic (p : Problem.t) =
  if not (Greedy_k.is_greedy_k_colorable p.graph p.k) then
    invalid_arg "Rescan.optimistic: input graph is not greedy-k-colorable";
  let st =
    Rc_core.Aggressive.coalesce_state (Coalescing.initial p.graph)
      p.affinities
  in
  let st = Rc_core.Optimistic.decoalesce_greedy p st in
  let open_affinities =
    List.filter
      (fun (a : Problem.affinity) -> not (Coalescing.same_class st a.u a.v))
      p.affinities
  in
  Coalescing.solution_of_state p
    (conservative_state Conservative.Brute_force ~k:p.k st
       open_affinities)

(* The set search: singleton fixpoints via the rescan loop, candidate
   sets by full enumeration, restarting from singletons after each
   successful set. *)
let set ~max_set (p : Problem.t) =
  let spec = Spec.of_state (Coalescing.initial p.graph) in
  let open_affinities () =
    List.filter
      (fun (a : Problem.affinity) -> not (Spec.same_class spec a.u a.v))
      p.affinities
  in
  let singles () =
    fixpoint Conservative.Brute_force ~k:p.k spec (open_affinities ())
  in
  let rec grow size =
    if size <= max_set then
      let candidates =
        Set_coalescing.subsets_by_weight size (open_affinities ())
      in
      let rec try_all = function
        | [] -> grow (size + 1)
        | set :: rest ->
            if Set_coalescing.try_set ~k:p.k spec set then begin
              singles ();
              grow 2
            end
            else try_all rest
      in
      try_all candidates
  in
  singles ();
  grow 2;
  Coalescing.solution_of_state p (Spec.commit spec)
