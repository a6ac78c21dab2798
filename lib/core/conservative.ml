module Graph = Rc_graph.Graph
module Flat = Rc_graph.Flat
module Greedy_k = Rc_graph.Greedy_k
module Elim_order = Rc_graph.Elim_order

type rule =
  | Briggs
  | George
  | Briggs_george
  | Briggs_george_extended
  | Brute_force

let rule_name = function
  | Briggs -> "briggs"
  | George -> "george"
  | Briggs_george -> "briggs+george"
  | Briggs_george_extended -> "briggs+george-ext"
  | Brute_force -> "brute-force"

(* The worklist fixpoint runs entirely on a flat speculation context
   (Coalescing.Speculation): local rules are the allocation-free flat
   tests, and the Brute_force rule speculates — mark, merge, re-run the
   linear greedy-k check, and roll back on rejection — instead of
   rebuilding a persistent graph per probe.  Accepted merges are
   replayed onto the persistent [Coalescing.state] once, at the end, so
   callers keep the same boundary type. *)

module Spec = Coalescing.Speculation

(* The local (non-speculating) rule tests, shared by the engine, its
   coherence audits and the test-only rescan oracle. *)
let local_test rule f ~k iu iv =
  match rule with
  | Briggs -> Rules.briggs_flat f ~k iu iv
  | George -> Rules.george_flat f ~k iu iv || Rules.george_flat f ~k iv iu
  | Briggs_george -> Rules.briggs_or_george_flat f ~k iu iv
  | Briggs_george_extended ->
      Rules.briggs_or_george_flat f ~k iu iv
      || Rules.george_extended_flat f ~k iu iv
      || Rules.george_extended_flat f ~k iv iu
  | Brute_force ->
      invalid_arg
        "Conservative.local_test: Brute_force is not a local rule (it \
         speculates a merge and re-checks the whole graph)"

(* ------------------------------------------------------------------ *)
(* The incremental engine                                              *)
(* ------------------------------------------------------------------ *)

(* The fixpoint of Section 4 — each pass tries every still-open affinity
   by decreasing weight, stopping when a pass coalesces nothing —
   computed without rescans: a {!Rule_cache} tracks which affinities
   could possibly have changed verdict since their last rejection, and
   a pass visits only those.

   Equivalence with the rescan loop (test/oracle/rescan.ml, which the
   differential suites hold the engine to).  A rescan pass tests every
   pending affinity in rank order; only affinities whose
   verdict-relevant state changed since their last rejection can
   accept, and every such change dirties the affinity through the
   cache's invalidation sets (movelist bumps cover verdict inputs,
   splices cover root changes, and new interference between roots
   implies a bump of both).  Visiting
   exactly the dirty affinities, in the same rank order, with dirtiness
   consulted at visit time (a merge mid-pass dirties later ranks into
   the same pass, earlier ranks into the next — just like the rescan)
   therefore produces the identical merge sequence, pass for pass.

   Per rule:
   - Briggs / George / Briggs_george read only the rows of the two
     roots and the degrees of their members, all covered by the
     generation stamps: rejections go [clean] and are skipped until a
     stamp moves; re-dirtied affinities whose stamps are intact are
     answered by the cached rejection without re-running the test.
   - Briggs_george_extended also reads distance-2 degrees (the
     simplifiable-neighbor exemption), which the stamps do not cover:
     its rejections stay [dirty] and are recomputed each pass.
   - Brute_force verdicts are global, so instead of stamps each
     rejection stores its residue witness — the subgraph of the probed
     merge with all degrees >= k — which re-justifies the rejection in
     O(|witness|) while its members live (merges only add edges between
     live vertices).  Rejections stay [dirty]; each pass re-validates
     the witness and only re-probes when it broke.  While the graph is
     known greedy-k-colorable, probes are answered by the incremental
     elimination order ({!Rc_graph.Elim_order}): the merge's local
     repair reproduces the full elimination's verdict exactly, and a
     rejecting repair hands back the k-core it got stuck on as the
     witness. *)

module Engine = struct
  let witness_cap = 128

  type t = {
    rule : rule;
    k : int;
    spec : Spec.spec;
    cache : Rule_cache.t;
    affs : Problem.affinity array; (* fixpoint rank order *)
    ru : int array; (* class roots at registration; re-rooted per visit *)
    rv : int array;
    order : int array; (* elimination buffer for non-colorable probes *)
    sigma : Elim_order.t option; (* brute force only *)
    mutable colorable : bool;
        (* Brute force only: the current graph is known
           greedy-k-colorable, enabling the incremental-order probe. *)
  }

  let rank_order affinities =
    List.sort
      (fun (a : Problem.affinity) b ->
        compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
      affinities
    |> Array.of_list

  let stamp_cacheable = function
    | Briggs | George | Briggs_george -> true
    | Briggs_george_extended | Brute_force -> false

  let create rule ~k spec affinities =
    let f = Spec.flat spec in
    let affs = rank_order affinities in
    let n = Array.length affs in
    let reprobe =
      if stamp_cacheable rule then
        Some (fun _aid ~iu ~iv -> local_test rule f ~k iu iv)
      else None
    in
    let cache = Rule_cache.create ?reprobe f ~n in
    Spec.attach_cache spec cache;
    let ru = Array.make (max 1 n) 0 and rv = Array.make (max 1 n) 0 in
    Array.iteri
      (fun aid (a : Problem.affinity) ->
        let iu = Spec.repr spec a.u and iv = Spec.repr spec a.v in
        ru.(aid) <- iu;
        rv.(aid) <- iv;
        Rule_cache.register cache aid ~iu ~iv)
      affs;
    let order = Array.make (max 1 (Flat.capacity f)) 0 in
    let sigma =
      if rule = Brute_force then Some (Elim_order.create f ~k) else None
    in
    let t =
      { rule; k; spec; cache; affs; ru; rv; order; sigma; colorable = false }
    in
    (match sigma with
    | Some s -> t.colorable <- Elim_order.sync s
    | None -> ());
    t

  let cache t = t.cache
  let stats t = Rule_cache.stats t.cache

  let roots t aid =
    (Spec.root_index t.spec t.ru.(aid), Spec.root_index t.spec t.rv.(aid))

  (* The brute-force probe.  While the graph is known colorable, the
     incremental order answers it: merge, local repair, keep or roll
     back — the repair's verdict is provably the full elimination's.
     The order goes stale whenever anyone else mutates the kernel
     (outer speculation scopes, the set search's own probes); the
     epoch check catches that and one resync restores it.  On a graph
     that is *not* currently colorable no order exists, so those
     probes fall back to a full elimination each (rare: it takes a
     non-colorable input to get there, and the first accepted merge
     that restores colorability re-arms the incremental path).  Either
     way a rejection records its witness — the k-core the repair got
     stuck on, or the elimination's residue (read out of scratch2
     before the rollback) — only when no outer mark is open, which
     [note_witness] enforces. *)
  let brute_probe t aid iu iv =
    let f = Spec.flat t.spec in
    let sigma =
      match t.sigma with
      | Some s -> s
      | None ->
          invalid_arg
            "Conservative.Engine: brute-force probe on an engine created \
             for a local rule (no elimination order)"
    in
    if not (Elim_order.in_sync sigma) then t.colorable <- Elim_order.sync sigma;
    if t.colorable then begin
      Elim_order.pre sigma ~iu ~iv;
      let m = Spec.mark t.spec in
      Spec.merge_roots t.spec iu iv;
      if Elim_order.decide sigma ~iu ~iv then begin
        Spec.release t.spec m;
        true
      end
      else begin
        let stuck = Elim_order.stuck_count sigma in
        let members =
          if stuck <= witness_cap then begin
            let members = Array.make stuck 0 in
            let count = ref 0 in
            Elim_order.iter_stuck sigma (fun v ->
                members.(!count) <- v;
                incr count);
            Some members
          end
          else None
        in
        Spec.rollback t.spec m;
        Elim_order.refresh_epoch sigma;
        (match members with
        | Some members -> Rule_cache.note_witness t.cache aid ~iu ~iv members
        | None -> ());
        false
      end
    end
    else begin
      let m = Spec.mark t.spec in
      Spec.merge_roots t.spec iu iv;
      let removed = Greedy_k.flat_eliminate f t.k ~order:t.order in
      if removed = Flat.num_live f then begin
        Spec.release t.spec m;
        t.colorable <- true;
        true
      end
      else begin
        let state = Flat.scratch2 f in
        let members = Array.make witness_cap 0 in
        let count = ref 0 in
        (try
           Flat.iter_live f (fun v ->
               if state.(v) <> 1 then begin
                 if !count >= witness_cap then raise Exit;
                 members.(!count) <- v;
                 incr count
               end)
         with Exit -> count := witness_cap + 1);
        Spec.rollback t.spec m;
        if !count <= witness_cap then
          Rule_cache.note_witness t.cache aid ~iu ~iv
            (Array.sub members 0 !count);
        false
      end
    end

  let visit t aid progress =
    let iu, iv = roots t aid in
    let f = Spec.flat t.spec in
    if iu = iv then Rule_cache.set_resolved t.cache aid
    else if Flat.mem_edge f iu iv then
      (* Interference between class roots is permanent; any root change
         re-dirties the affinity through the movelists. *)
      Rule_cache.set_clean t.cache aid
    else
      match t.rule with
      | Brute_force ->
          if Rule_cache.witness_reject t.cache aid ~iu ~iv then ()
          else if brute_probe t aid iu iv then begin
            Rule_cache.set_resolved t.cache aid;
            progress := true
          end
      | Briggs_george_extended ->
          if local_test t.rule f ~k:t.k iu iv then begin
            Spec.merge_roots t.spec iu iv;
            Rule_cache.set_resolved t.cache aid;
            progress := true
          end
      | Briggs | George | Briggs_george ->
          if Rule_cache.reject_cached t.cache aid ~iu ~iv then
            Rule_cache.set_clean t.cache aid
          else if local_test t.rule f ~k:t.k iu iv then begin
            Spec.merge_roots t.spec iu iv;
            Rule_cache.set_resolved t.cache aid;
            progress := true
          end
          else begin
            Rule_cache.note_reject t.cache aid ~iu ~iv;
            Rule_cache.set_clean t.cache aid
          end

  let run t =
    let n = Array.length t.affs in
    let progress = ref true in
    while !progress do
      progress := false;
      if Rule_cache.dirty_count t.cache > 0 then
        for aid = 0 to n - 1 do
          if Rule_cache.is_dirty t.cache aid then visit t aid progress
        done
    done

  let iter_open t fn =
    for aid = 0 to Array.length t.affs - 1 do
      if not (Rule_cache.is_resolved t.cache aid) then fn aid t.affs.(aid)
    done
end

let coalesce_state rule ~k st affinities =
  let spec = Spec.of_state st in
  Engine.run (Engine.create rule ~k spec affinities);
  Spec.commit spec

let coalesce rule (p : Problem.t) =
  let st =
    coalesce_state rule ~k:p.k (Coalescing.initial p.graph) p.affinities
  in
  Coalescing.solution_of_state p st
