(* Test-only oracle for the PEO-derived structures of Rc_graph.Chordal and
   Rc_graph.Clique_tree: the straightforward construction on the
   persistent representation, kept with the tests so the shipped
   single-pass construction has something independent to agree with.

   - maximal cliques: C_v = {v} ∪ later(v) for every v of the MCS order,
     dropping C_v when it is a subset of C_w for an earlier neighbour w
     (later(v) found by filtering neighbours through a position table);
   - clique tree: every pair of cliques sharing a vertex is a candidate
     edge weighted by |C_i ∩ C_j| (ISet.inter); the candidates are
     sorted by weight descending, then (i, j) ascending, and Kruskal
     keeps the first edge joining two components.

   The shipped code must reproduce this tree exactly, not just some
   valid clique tree: the Theorem 5 certificate chains depend on it. *)

module G = Rc_graph.Graph
module ISet = G.ISet
module IMap = G.IMap
module Chordal = Rc_graph.Chordal

let later_neighbors g order =
  let position = Hashtbl.create (List.length order) in
  List.iteri (fun i v -> Hashtbl.replace position v i) order;
  let later v =
    let pv = Hashtbl.find position v in
    ISet.filter (fun u -> Hashtbl.find position u > pv) (G.neighbors g v)
  in
  (position, later)

let maximal_cliques g =
  let order = Chordal.mcs_order g in
  let position, later = later_neighbors g order in
  let candidates = Hashtbl.create (List.length order) in
  List.iter (fun v -> Hashtbl.replace candidates v (ISet.add v (later v))) order;
  let candidate = Hashtbl.find candidates in
  let earlier_neighbors v =
    ISet.filter
      (fun u -> Hashtbl.find position u < Hashtbl.find position v)
      (G.neighbors g v)
  in
  List.filter_map
    (fun v ->
      let cv = candidate v in
      let dominated =
        ISet.exists (fun w -> ISet.subset cv (candidate w)) (earlier_neighbors v)
      in
      if dominated then None else Some cv)
    order

type tree = {
  cliques : ISet.t array;
  adjacency : int list array;
  subtree : int list IMap.t;
}

let clique_tree g =
  let cliques = Array.of_list (maximal_cliques g) in
  let n = Array.length cliques in
  let holders = Hashtbl.create 64 in
  Array.iteri
    (fun i c ->
      ISet.iter
        (fun v ->
          let cur = Option.value (Hashtbl.find_opt holders v) ~default:[] in
          Hashtbl.replace holders v (i :: cur))
        c)
    cliques;
  let candidate_pairs = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ is ->
      let rec pairs = function
        | [] -> ()
        | i :: rest ->
            List.iter
              (fun j -> Hashtbl.replace candidate_pairs (min i j, max i j) ())
              rest;
            pairs rest
      in
      pairs is)
    holders;
  let weighted =
    Hashtbl.fold
      (fun (i, j) () acc ->
        ((i, j), ISet.cardinal (ISet.inter cliques.(i) cliques.(j))) :: acc)
      candidate_pairs []
    |> List.sort (fun (e1, w1) (e2, w2) -> compare (w2, e1) (w1, e2))
  in
  let parent = Array.init n (fun i -> i) in
  let rec find i =
    if parent.(i) = i then i
    else begin
      parent.(i) <- find parent.(i);
      parent.(i)
    end
  in
  let adjacency = Array.make n [] in
  List.iter
    (fun ((i, j), _) ->
      let ri = find i and rj = find j in
      if ri <> rj then begin
        parent.(ri) <- rj;
        adjacency.(i) <- j :: adjacency.(i);
        adjacency.(j) <- i :: adjacency.(j)
      end)
    weighted;
  let subtree = ref IMap.empty in
  for i = n - 1 downto 0 do
    ISet.iter
      (fun v ->
        let l = Option.value (IMap.find_opt v !subtree) ~default:[] in
        subtree := IMap.add v (i :: l) !subtree)
      cliques.(i)
  done;
  { cliques; adjacency; subtree = !subtree }

let tree_edges t =
  let acc = ref [] in
  Array.iteri
    (fun i ns -> List.iter (fun j -> if i < j then acc := (i, j) :: !acc) ns)
    t.adjacency;
  List.rev !acc

(* Every maximal clique of a small graph by subset enumeration over
   adjacency bitmasks — the oracle for the follower rule, n <= ~16. *)
let brute_maximal_cliques g =
  let vs = Array.of_list (G.vertices g) in
  let n = Array.length vs in
  let adj =
    Array.map
      (fun v ->
        let m = ref 0 in
        Array.iteri (fun j u -> if G.mem_edge g v u then m := !m lor (1 lsl j)) vs;
        !m)
      vs
  in
  (* [mask] is a clique iff each member sees every other member. *)
  let is_clique mask =
    let ok = ref true in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0
         && mask land lnot (adj.(i) lor (1 lsl i)) <> 0
      then ok := false
    done;
    !ok
  in
  let extendable mask =
    let ext = ref false in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) = 0 && mask land lnot adj.(i) = 0 then ext := true
    done;
    !ext
  in
  let cliques = ref [] in
  for mask = 1 to (1 lsl n) - 1 do
    if is_clique mask && not (extendable mask) then begin
      let s = ref ISet.empty in
      Array.iteri (fun i v -> if mask land (1 lsl i) <> 0 then s := ISet.add v !s) vs;
      cliques := !s :: !cliques
    end
  done;
  !cliques
