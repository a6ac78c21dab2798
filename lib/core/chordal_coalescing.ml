module Graph = Rc_graph.Graph
module ISet = Graph.ISet
module Chordal = Rc_graph.Chordal
module Clique_tree = Rc_graph.Clique_tree

type verdict =
  | Coalescable of Graph.vertex list
  | Uncoalescable of string

(* Intervals on the path are represented with the shared Figure 5
   machinery ({!Rc_graph.Interval_cover}); the [tag] is the vertex a
   real interval belongs to, or [padding_tag] for the single-node
   dummies added to fill every position up to omega. *)
module Interval_cover = Rc_graph.Interval_cover

let padding_tag = -1

let intervals_on_path tree path =
  (* Vertices whose subtree meets the path; the intersection of a subtree
     with a tree path is a contiguous segment. *)
  let tbl = Hashtbl.create 64 in
  List.iteri
    (fun i n ->
      ISet.iter
        (fun v ->
          match Hashtbl.find_opt tbl v with
          | None -> Hashtbl.replace tbl v (i, i)
          | Some (lo, hi) -> Hashtbl.replace tbl v (min lo i, max hi i))
        (Clique_tree.clique tree n))
    path;
  Hashtbl.fold
    (fun v (lo, hi) acc -> { Interval_cover.lo; hi; tag = v } :: acc)
    tbl []

let pad_intervals intervals ~len ~omega =
  let coverage = Array.make len 0 in
  List.iter
    (fun (i : Interval_cover.interval) ->
      for p = i.lo to i.hi do
        coverage.(p) <- coverage.(p) + 1
      done)
    intervals;
  let padding = ref [] in
  for p = 0 to len - 1 do
    (* One dummy per deficient position suffices: a disjoint cover can
       use at most one interval per position. *)
    if coverage.(p) < omega then
      padding := { Interval_cover.lo = p; hi = p; tag = padding_tag } :: !padding
  done;
  intervals @ !padding

let covering_chain intervals ~len x y =
  let source =
    List.find (fun (i : Interval_cover.interval) -> i.tag = x) intervals
  in
  let target =
    List.find (fun (i : Interval_cover.interval) -> i.tag = y) intervals
  in
  let others =
    List.filter
      (fun (i : Interval_cover.interval) -> i.tag <> x && i.tag <> y)
      intervals
  in
  Interval_cover.solve ~len ~source ~target others

let decide g ~k x y =
  if not (Graph.mem_vertex g x && Graph.mem_vertex g y) then
    invalid_arg "Chordal_coalescing.decide: absent vertex";
  match Chordal.peo g with
  | None -> invalid_arg "Chordal_coalescing.decide: graph is not chordal"
  | Some _ when x = y -> Coalescable []
  | Some _ when Graph.mem_edge g x y -> Uncoalescable "x and y interfere"
  | Some peo -> (
      let tree = Clique_tree.of_peo peo in
      let omega = Clique_tree.omega tree in
      if k < omega then
        Uncoalescable
          (Printf.sprintf "k=%d < omega=%d: no k-coloring at all" k omega)
      else
        match Clique_tree.path_between_vertices tree x y with
        | None -> Coalescable [] (* different components *)
        | Some [] ->
            invalid_arg
              "Chordal_coalescing.decide: empty clique-tree path (a tree \
               path contains both of its end nodes)"
        | Some [ _ ] ->
            invalid_arg
              "Chordal_coalescing.decide: T_x and T_y share a clique-tree \
               node although x and y do not interfere (subtrees meet iff \
               their vertices are adjacent)"
        | Some path -> (
            let len = List.length path in
            let intervals = intervals_on_path tree path in
            let intervals = pad_intervals intervals ~len ~omega in
            match covering_chain intervals ~len x y with
            | None -> Uncoalescable "no disjoint interval cover links I_x to I_y"
            | Some chain ->
                let middle =
                  List.filter_map
                    (fun (i : Interval_cover.interval) ->
                      if i.tag <> x && i.tag <> y && i.tag <> padding_tag then
                        Some i.tag
                      else None)
                    chain
                in
                Coalescable middle))

let can_coalesce g ~k x y =
  match decide g ~k x y with Coalescable _ -> true | Uncoalescable _ -> false

let coalesce_incrementally (p : Problem.t) st (a : Problem.affinity) =
  let g = Coalescing.graph st in
  let x = Coalescing.find st a.u and y = Coalescing.find st a.v in
  match decide g ~k:p.k x y with
  | Uncoalescable _ -> None
  | Coalescable chain ->
      (* Merge the whole chain into x, then y: the result is chordal
         with unchanged clique number, so the invariant holds for the
         next affinity. *)
      let st =
        List.fold_left
          (fun st v ->
            match st with
            | None -> None
            | Some st -> Coalescing.merge st x v)
          (Some st) chain
      in
      (match st with
      | None -> None
      | Some st -> Coalescing.merge st x y)
