(* Test-only persistent-graph references of the merge-heavy searches
   and of the greedy-k kernels: the code paths from before the flat
   kernel and its speculation context, on the persistent
   [Coalescing.state] (one persistent merge per probe, one rebuild of
   the merge state per de-coalescing split) and the persistent [Graph].
   test_search_equiv holds the library's searches to them, test_graph
   its flat greedy-k verdict, smallest-last order and coloring number,
   and the certifier oracle peels merged graphs with them. *)

module Graph = Rc_graph.Graph
module ISet = Graph.ISet
module IMap = Graph.IMap
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Conservative = Rc_core.Conservative

module Exact = struct
  module Greedy_k = Rc_graph.Greedy_k
  module Coloring = Rc_graph.Coloring

  let search (p : Problem.t) ~final_ok =
    let affinities, suffix_weight = Rc_core.Exact.sorted_affinities p in
    let best = ref None in
    let best_weight = ref (-1) in
    let rec go i st gained =
      if gained + suffix_weight.(i) <= !best_weight then ()
      else if i = Array.length affinities then begin
        if final_ok (Coalescing.graph st) then begin
          best := Some st;
          best_weight := gained
        end
      end
      else begin
        let a = affinities.(i) in
        if Coalescing.same_class st a.u a.v then
          go (i + 1) st (gained + a.weight)
        else begin
          (match Coalescing.merge st a.u a.v with
          | Some st' -> go (i + 1) st' (gained + a.weight)
          | None -> ());
          go (i + 1) st gained
        end
      end
    in
    go 0 (Coalescing.initial p.graph) 0;
    match !best with
    | Some st -> Coalescing.solution_of_state p st
    | None ->
        invalid_arg "Exact.search: the uncoalesced graph is not acceptable"

  let aggressive p = search p ~final_ok:(fun _ -> true)

  let conservative (p : Problem.t) =
    if not (Greedy_k.is_greedy_k_colorable p.graph p.k) then
      invalid_arg "Exact.conservative: input graph is not greedy-k-colorable";
    search p ~final_ok:(fun g -> Greedy_k.is_greedy_k_colorable g p.k)

  let conservative_k_colorable (p : Problem.t) =
    if Coloring.k_colorable p.graph p.k = None then
      invalid_arg
        "Exact.conservative_k_colorable: input graph is not k-colorable";
    search p ~final_ok:(fun g -> Coloring.k_colorable g p.k <> None)
end

module Optimistic = struct
  module Greedy_k = Rc_graph.Greedy_k

  let decoalesce_greedy ?(scoring = Rc_core.Optimistic.Degree_per_weight)
      (p : Problem.t) st =
    let rec loop st =
      let g = Coalescing.graph st in
      match Greedy_k.witness_subgraph g p.k with
      | None -> st
      | Some residue ->
          let merged_classes =
            List.filter
              (fun (r, members) ->
                ISet.mem r residue && List.length members >= 2)
              (Coalescing.classes st)
          in
          (match merged_classes with
          | [] ->
              invalid_arg
                "Optimistic.decoalesce_greedy: residue without merged classes \
                 (base graph not greedy-k-colorable)"
          | _ ->
              let residue_graph = Graph.induced g residue in
              let victim_repr, _ =
                Rc_core.Optimistic.pick_victim ~scoring
                  ~affinities:p.affinities
                  ~residue_degree:(Graph.degree residue_graph)
                  merged_classes
              in
              (* Split the victim into singletons and re-root every
                 other class at its smallest member. *)
              List.filter_map
                (fun (r, members) ->
                  if r = victim_repr then None
                  else Some (List.hd members, members))
                (Coalescing.classes st)
              |> Coalescing.of_classes p.graph
              |> loop)
    in
    loop st

  let coalesce ?scoring (p : Problem.t) =
    if not (Greedy_k.is_greedy_k_colorable p.graph p.k) then
      invalid_arg "Optimistic.coalesce: input graph is not greedy-k-colorable";
    let st =
      Rc_core.Aggressive.coalesce_state (Coalescing.initial p.graph)
        p.affinities
    in
    let st = decoalesce_greedy ?scoring p st in
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
end

module Set_coalescing = struct
  module Greedy_k = Rc_graph.Greedy_k

  let try_set ~k st set =
    let merged =
      List.fold_left
        (fun acc (a : Problem.affinity) ->
          match acc with
          | None -> None
          | Some st ->
              if Coalescing.same_class st a.u a.v then Some st
              else Coalescing.merge st a.u a.v)
        (Some st) set
    in
    match merged with
    | Some st' when Greedy_k.is_greedy_k_colorable (Coalescing.graph st') k ->
        Some st'
    | Some _ | None -> None

  let coalesce ?(max_set = 2) (p : Problem.t) =
    if max_set < 1 then invalid_arg "Set_coalescing.coalesce: max_set < 1";
    let open_affinities st =
      List.filter
        (fun (a : Problem.affinity) -> not (Coalescing.same_class st a.u a.v))
        p.affinities
    in
    let singles st =
      Conservative.coalesce_state Conservative.Brute_force ~k:p.k st
        (open_affinities st)
    in
    let rec grow st size =
      if size > max_set then st
      else
        let candidates =
          Rc_core.Set_coalescing.subsets_by_weight size (open_affinities st)
        in
        let rec try_all = function
          | [] -> grow st (size + 1)
          | set :: rest -> (
              match try_set ~k:p.k st set with
              | Some st' -> grow (singles st') 2
              | None -> try_all rest)
        in
        try_all candidates
    in
    let st = singles (Coalescing.initial p.graph) in
    let st = grow st 2 in
    Coalescing.solution_of_state p st
end

module Greedy_k = struct
  (* The greedy-k elimination scheme on persistent maps: a degree map and
     a list of low-degree vertices, each removal re-read through the
     neighbour set. *)
  let is_greedy_k_colorable g k =
    let degrees =
      List.fold_left (fun m v -> IMap.add v (Graph.degree g v) m) IMap.empty
        (Graph.vertices g)
    in
    let low =
      IMap.fold (fun v d acc -> if d < k then v :: acc else acc) degrees []
    in
    let rec loop removed degrees low =
      match low with
      | [] -> removed
      | v :: low ->
          if ISet.mem v removed then loop removed degrees low
          else
            let removed = ISet.add v removed in
            let degrees, low =
              ISet.fold
                (fun u (degrees, low) ->
                  if ISet.mem u removed then (degrees, low)
                  else
                    let d = IMap.find u degrees - 1 in
                    let degrees = IMap.add u d degrees in
                    let low = if d = k - 1 then u :: low else low in
                    (degrees, low))
                (Graph.neighbors g v) (degrees, low)
            in
            loop removed degrees low
    in
    ISet.cardinal (loop ISet.empty degrees low) = Graph.num_vertices g

  let smallest_last_order g =
    let degrees =
      List.fold_left (fun m v -> IMap.add v (Graph.degree g v) m) IMap.empty
        (Graph.vertices g)
    in
    let rec loop degrees acc =
      if IMap.is_empty degrees then List.rev acc
      else
        (* Minimum degree, ties to the smallest vertex. *)
        let v, _ =
          IMap.fold
            (fun v d (bv, bd) -> if bd <= d then (bv, bd) else (v, d))
            degrees (IMap.min_binding degrees)
        in
        let degrees =
          ISet.fold
            (fun u m ->
              match IMap.find_opt u m with
              | Some d -> IMap.add u (d - 1) m
              | None -> m)
            (Graph.neighbors g v) (IMap.remove v degrees)
        in
        loop degrees (v :: acc)
    in
    loop degrees []

  let coloring_number g =
    if Graph.num_vertices g = 0 then 0
    else
      let order = smallest_last_order g in
      let remaining = ref (Graph.vertex_set g) in
      let worst = ref 0 in
      List.iter
        (fun v ->
          let d = ISet.cardinal (ISet.inter (Graph.neighbors g v) !remaining) in
          if d > !worst then worst := d;
          remaining := ISet.remove v !remaining)
        order;
      !worst + 1
end
