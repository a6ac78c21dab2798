(* Test-only oracle for [Rc_core.Coalescing]'s merge state: its original
   representation, a merged graph plus a map from every original vertex
   to its representative, rewritten over all n vertices on every merge.
   O(n) per merge, which is why the library moved to class-local merges
   (a vertex -> class-id map relabelling the smaller class); this copy
   stays small enough to be obviously right, and test_search_equiv holds
   the library's state to it after every step of seeded merge scripts. *)

module Graph = Rc_graph.Graph
module IMap = Graph.IMap

type state = {
  graph : Graph.t;
  repr : Graph.vertex IMap.t; (* original vertex -> current representative *)
}

let initial g =
  {
    graph = g;
    repr =
      List.fold_left (fun m v -> IMap.add v v m) IMap.empty (Graph.vertices g);
  }

let find st v =
  match IMap.find_opt v st.repr with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Coalescing_oracle.find: unknown vertex %d" v)

let graph st = st.graph

let same_class st u v = find st u = find st v

let merge st u v =
  let ru = find st u and rv = find st v in
  if ru = rv then None
  else if Graph.mem_edge st.graph ru rv then None
  else
    let graph = Graph.merge st.graph ru rv in
    let repr = IMap.map (fun r -> if r = rv then ru else r) st.repr in
    Some { graph; repr }

let classes st =
  IMap.fold
    (fun orig r acc ->
      let cur = match IMap.find_opt r acc with Some l -> l | None -> [] in
      IMap.add r (orig :: cur) acc)
    st.repr IMap.empty
  |> IMap.bindings
  |> List.map (fun (r, members) -> (r, List.rev members))

let class_of st v =
  let r = find st v in
  IMap.fold
    (fun orig r' acc -> if r' = r then orig :: acc else acc)
    st.repr []
  |> List.rev
