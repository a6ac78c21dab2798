module ISet = Graph.ISet
module IMap = Graph.IMap

type t = {
  cliques : ISet.t array;
  adjacency : int list array; (* forest over clique indices *)
  subtree : int list IMap.t; (* vertex -> sorted node indices containing it *)
  omega : int;
}

let num_nodes t = Array.length t.cliques

let clique t i = t.cliques.(i)

let omega t = t.omega

let tree_edges t =
  let acc = ref [] in
  Array.iteri
    (fun i ns -> List.iter (fun j -> if i < j then acc := (i, j) :: !acc) ns)
    t.adjacency;
  List.rev !acc

let nodes_of_vertex t v =
  match IMap.find_opt v t.subtree with Some l -> l | None -> []

(* Classical construction: the maximal cliques are the nodes, and any
   maximum-weight spanning forest of the clique-intersection graph
   (weight = intersection size) is a clique tree (Bernstein–Goodman).
   Kruskal takes the candidate edges by weight descending, then (i, j)
   ascending, and that order fixes which tree — and so which certificate
   chains — the Theorem 5 decision sees.

   Everything comes from one elimination pass.  Scanning cliques j in
   index order, each vertex's [holders] list names the earlier cliques
   containing it, so one touch per shared vertex counts |C_i ∩ C_j| for
   every i < j: no set intersection.  The pairs are then dealt into one
   bucket per weight, in reverse (i, j) order onto list heads, so each
   bucket ends up ascending: no comparison sort. *)
let of_peo (e : Chordal.peo) =
  let heads = Array.of_list (Chordal.maximal_heads e) in
  let n = Array.length heads in
  let cliques = Array.map (Chordal.clique_at e) heads in
  let omega = Chordal.peo_omega e in
  let holders = Array.make (Array.length e.vertices) [] in
  let shared = Array.make n 0 in
  let pairs_of = Array.make n [] in
  (* pairs_of.(i): (j, |C_i ∩ C_j|) for each j > i meeting C_i, j descending *)
  for j = 0 to n - 1 do
    let touched = ref [] in
    let visit q =
      List.iter
        (fun i ->
          if shared.(i) = 0 then touched := i :: !touched;
          shared.(i) <- shared.(i) + 1)
        holders.(q);
      holders.(q) <- j :: holders.(q)
    in
    visit heads.(j);
    Array.iter visit e.later.(heads.(j));
    List.iter
      (fun i ->
        pairs_of.(i) <- (j, shared.(i)) :: pairs_of.(i);
        shared.(i) <- 0)
      !touched
  done;
  (* Distinct maximal cliques share at most omega - 1 vertices. *)
  let buckets = Array.make omega [] in
  for i = n - 1 downto 0 do
    List.iter (fun (j, w) -> buckets.(w) <- (i, j) :: buckets.(w)) pairs_of.(i)
  done;
  (* Kruskal with union-find. *)
  let parent = Array.init n (fun i -> i) in
  let rec find i = if parent.(i) = i then i else (parent.(i) <- find parent.(i); parent.(i)) in
  let adjacency = Array.make n [] in
  for w = Array.length buckets - 1 downto 1 do
    List.iter
      (fun (i, j) ->
        let ri = find i and rj = find j in
        if ri <> rj then begin
          parent.(ri) <- rj;
          adjacency.(i) <- j :: adjacency.(i);
          adjacency.(j) <- i :: adjacency.(j)
        end)
      buckets.(w)
  done;
  let subtree = ref IMap.empty in
  Array.iteri
    (fun q nodes -> subtree := IMap.add e.vertices.(q) (List.rev nodes) !subtree)
    holders;
  { cliques; adjacency; subtree = !subtree; omega }

let build g =
  match Chordal.peo g with
  | Some e -> of_peo e
  | None -> invalid_arg "Clique_tree.build: graph is not chordal"

let path_between t src dst =
  if src = dst then Some [ src ]
  else begin
    let parent = Hashtbl.create 16 in
    let q = Queue.create () in
    Queue.add src q;
    Hashtbl.replace parent src src;
    let rec bfs () =
      if Queue.is_empty q then None
      else
        let v = Queue.pop q in
        if v = dst then begin
          let rec build v acc =
            if v = src then src :: acc
            else build (Hashtbl.find parent v) (v :: acc)
          in
          Some (build dst [])
        end
        else begin
          List.iter
            (fun u ->
              if not (Hashtbl.mem parent u) then begin
                Hashtbl.replace parent u v;
                Queue.add u q
              end)
            t.adjacency.(v);
          bfs ()
        end
    in
    bfs ()
  end

let path_between_vertices t x y =
  let tx = nodes_of_vertex t x and ty = nodes_of_vertex t y in
  match (tx, ty) with
  | [], _ | _, [] -> None
  | nx :: _, ny :: _ -> (
      let in_tx n = ISet.mem x t.cliques.(n) in
      let in_ty n = ISet.mem y t.cliques.(n) in
      match List.find_opt in_ty tx with
      | Some shared -> Some [ shared ]
      | None -> (
          match path_between t nx ny with
          | None -> None
          | Some p ->
              (* Trim to the minimal sub-path: drop the prefix while the
                 next node still contains x, and cut after the first node
                 containing y. *)
              let rec drop_prefix = function
                | _ :: (b :: _ as rest) when in_tx b -> drop_prefix rest
                | p -> p
              in
              let rec cut_after = function
                | [] -> []
                | n :: rest -> if in_ty n then [ n ] else n :: cut_after rest
              in
              Some (cut_after (drop_prefix p))))

let verify g t =
  let expected = Chordal.maximal_cliques g in
  let got = Array.to_list t.cliques in
  let same_cliques =
    List.length expected = List.length got
    && List.for_all (fun c -> List.exists (ISet.equal c) got) expected
  in
  let subtree_connected v =
    match nodes_of_vertex t v with
    | [] -> false
    | n0 :: _ as nodes ->
        (* BFS within nodes containing v must reach all of them. *)
        let member = List.sort_uniq compare nodes in
        let seen = Hashtbl.create 8 in
        let q = Queue.create () in
        Queue.add n0 q;
        Hashtbl.replace seen n0 ();
        while not (Queue.is_empty q) do
          let n = Queue.pop q in
          List.iter
            (fun m ->
              if List.mem m member && not (Hashtbl.mem seen m) then begin
                Hashtbl.replace seen m ();
                Queue.add m q
              end)
            t.adjacency.(n)
        done;
        List.for_all (Hashtbl.mem seen) member
  in
  let intersection_iff_edge =
    let vs = Graph.vertices g in
    List.for_all
      (fun u ->
        List.for_all
          (fun v ->
            u >= v
            ||
            let shared =
              List.exists
                (fun n -> ISet.mem u t.cliques.(n) && ISet.mem v t.cliques.(n))
                (nodes_of_vertex t u)
            in
            shared = Graph.mem_edge g u v)
          vs)
      vs
  in
  same_cliques
  && List.for_all subtree_connected (Graph.vertices g)
  && intersection_iff_edge

let pp ppf t =
  Format.fprintf ppf "@[<v>clique tree (%d nodes):@," (num_nodes t);
  Array.iteri
    (fun i c ->
      Format.fprintf ppf "  node %d: {%a} -- %a@," i
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Format.pp_print_int)
        (ISet.elements c)
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
           Format.pp_print_int)
        t.adjacency.(i))
    t.cliques;
  Format.fprintf ppf "@]"
