module Graph = Rc_graph.Graph
module ISet = Graph.ISet
module Flat = Rc_graph.Flat
module Greedy_k = Rc_graph.Greedy_k

(* Total weight of affinities internal to a class. *)
let internal_weight affinities members =
  let s = ISet.of_list members in
  List.fold_left
    (fun acc (a : Problem.affinity) ->
      if ISet.mem a.u s && ISet.mem a.v s then acc + a.weight else acc)
    0 affinities

type scoring = Degree_per_weight | Weight_only | Degree_only

(* Victim choice, shared with the test-only persistent oracle: among
   the merged classes whose representative sits in the stuck residue
   (iterated in increasing representative order), the first one whose
   score strictly beats the running best.  [residue_degree] gives the
   representative's degree within the residue-induced subgraph. *)
let pick_victim ~scoring ~affinities ~residue_degree merged_classes =
  let score (rep, members) =
    let gain = float_of_int (residue_degree rep) in
    let cost = float_of_int (1 + internal_weight affinities members) in
    match scoring with
    | Degree_per_weight -> gain /. cost
    | Weight_only -> -.cost
    | Degree_only -> gain
  in
  let victim, _ =
    List.fold_left
      (fun (bv, bs) c ->
        let s = score c in
        if s > bs then (Some c, s) else (bv, bs))
      (None, neg_infinity) merged_classes
    |> fun (v, s) ->
    match v with
    | Some v -> (v, s)
    | None ->
        invalid_arg
          "Optimistic.pick_victim: no merged class in the stuck residue"
  in
  victim

(* De-coalescing on the flat kernel: one mirror of the base graph, and
   per iteration a checkpointed replay of the surviving class merges
   instead of a persistent-state rebuild.  The classes are carried
   explicitly; the persistent state is realized exactly once, at the
   end.

   Class bookkeeping mirrors the persistent rebuild (the test-only
   oracle) bit for bit: after every split the class representatives
   collapse to the smallest member (as [Coalescing.of_classes] picks
   them) and the class list is iterated in increasing representative
   order (as [Coalescing.classes] yields it), so victim scoring and
   tie-breaking agree. *)
let decoalesce_greedy ?(scoring = Degree_per_weight) (p : Problem.t) st =
  let f = Flat.of_graph p.graph in
  let in_residue = Array.make (Flat.capacity f) false in
  let splits = ref 0 in
  (* (rep, members) pairs, members ascending, list sorted by rep — the
     shape [Coalescing.classes] returns. *)
  let rec loop classes =
    let c = Flat.checkpoint f in
    List.iter
      (fun (rep, members) ->
        let ir = Flat.index f rep in
        List.iter
          (fun m -> if m <> rep then Flat.merge f ir (Flat.index f m))
          members)
      classes;
    match Greedy_k.flat_residue f p.k with
    | None ->
        (* Greedy-k-colorable: done speculating. *)
        Flat.rollback f c;
        classes
    | Some residue ->
        List.iter (fun i -> in_residue.(i) <- true) residue;
        let merged_classes =
          List.filter
            (fun (rep, members) ->
              in_residue.(Flat.index f rep) && List.length members >= 2)
            classes
        in
        (match merged_classes with
        | [] ->
            List.iter (fun i -> in_residue.(i) <- false) residue;
            Flat.rollback f c;
            invalid_arg
              "Optimistic.decoalesce_greedy: residue without merged classes \
               (base graph not greedy-k-colorable)"
        | _ ->
            let residue_degree rep =
              Flat.fold_neighbors f (Flat.index f rep)
                (fun acc j -> if in_residue.(j) then acc + 1 else acc)
                0
            in
            let victim_repr, _ =
              pick_victim ~scoring ~affinities:p.affinities ~residue_degree
                merged_classes
            in
            List.iter (fun i -> in_residue.(i) <- false) residue;
            Flat.rollback f c;
            incr splits;
            (* Split the victim into singletons (which stop being
               tracked) and re-root every survivor at its smallest
               member, exactly like the persistent rebuild does. *)
            List.filter (fun (rep, _) -> rep <> victim_repr) classes
            |> List.map (fun (_, members) -> (List.hd members, members))
            |> List.sort (fun (r1, _) (r2, _) -> compare r1 r2)
            |> loop)
  in
  let classes =
    loop
      (List.filter
         (fun (_, members) -> List.length members >= 2)
         (Coalescing.classes st))
  in
  (* No class was split: the input state is the answer, exactly as the
     persistent path returns it (skipping the rebuild also keeps the
     original representatives).  Otherwise realize the surviving
     classes with [Coalescing.of_classes] — the carried representatives
     are the smallest members, the same ones the persistent rebuild
     picks. *)
  if !splits = 0 then st else Coalescing.of_classes p.graph classes

let coalesce ?scoring (p : Problem.t) =
  if not (Greedy_k.is_greedy_k_colorable p.graph p.k) then
    invalid_arg "Optimistic.coalesce: input graph is not greedy-k-colorable";
  (* Phase 1: aggressive. *)
  let st = Aggressive.coalesce_state (Coalescing.initial p.graph) p.affinities in
  (* Phase 2: de-coalesce until greedy-k-colorable. *)
  let st = decoalesce_greedy ?scoring p st in
  (* Phase 3: conservative re-coalescing of what was given up. *)
  let open_affinities =
    List.filter
      (fun (a : Problem.affinity) -> not (Coalescing.same_class st a.u a.v))
      p.affinities
  in
  let st =
    Conservative.coalesce_state Conservative.Brute_force ~k:p.k st
      open_affinities
  in
  Coalescing.solution_of_state p st
