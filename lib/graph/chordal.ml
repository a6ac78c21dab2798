module ISet = Graph.ISet
module IMap = Graph.IMap

(* Maximum-cardinality search on the flat kernel.  Visits vertices by
   decreasing number of already-visited neighbors; the reverse visit
   order is a PEO iff the graph is chordal.  Weights live in a scratch
   array and the weight buckets are plain stacks with lazy deletion
   (an entry is stale when the vertex was visited or re-pushed at a
   higher weight), giving O(V + E) total.  Returns dense indices in
   reverse visit order — the head is eliminated first. *)
let flat_mcs_order f =
  let n = Flat.num_live f in
  if n = 0 then []
  else begin
    let weight = Flat.scratch1 f in
    let visited = Flat.scratch2 f in
    Flat.iter_live f (fun v ->
        weight.(v) <- 0;
        visited.(v) <- 0);
    let buckets = Array.make (n + 1) [] in
    Flat.iter_live f (fun v -> buckets.(0) <- v :: buckets.(0));
    let max_w = ref 0 in
    let order = ref [] in
    for _ = 1 to n do
      let rec pop () =
        match buckets.(!max_w) with
        | [] ->
            decr max_w;
            pop ()
        | v :: rest ->
            buckets.(!max_w) <- rest;
            if visited.(v) = 1 || weight.(v) <> !max_w then pop () else v
      in
      let v = pop () in
      visited.(v) <- 1;
      order := v :: !order;
      Flat.iter_neighbors f v (fun u ->
          if visited.(u) = 0 then begin
            let w = weight.(u) + 1 in
            weight.(u) <- w;
            buckets.(w) <- u :: buckets.(w);
            if w > !max_w then max_w := w
          end)
    done;
    !order
  end

(* Zero-fill-in check of a candidate PEO, flat: for each vertex, its
   later neighbors minus the follower (earliest later neighbor) must
   all be adjacent to the follower — each adjacency probe is an O(1)
   bitmatrix read, so the whole check is O(V + E).  [order] must
   enumerate the live indices exactly once. *)
let flat_is_peo f order =
  let pos = Flat.scratch1 f in
  List.iteri (fun i v -> pos.(v) <- i) order;
  let ok = ref true in
  List.iteri
    (fun pv v ->
      if !ok then begin
        let follower = ref (-1) and follower_pos = ref max_int in
        Flat.iter_neighbors f v (fun u ->
            if pos.(u) > pv && pos.(u) < !follower_pos then begin
              follower := u;
              follower_pos := pos.(u)
            end);
        if !follower >= 0 then
          Flat.iter_neighbors f v (fun u ->
              if pos.(u) > pv && u <> !follower
                 && not (Flat.mem_edge f !follower u)
              then ok := false)
      end)
    order;
  !ok

let flat_is_chordal f = flat_is_peo f (flat_mcs_order f)

let mcs_order g =
  let f = Flat.of_graph g in
  List.map (Flat.label f) (flat_mcs_order f)

let is_perfect_elimination_order g order =
  if
    List.length order <> Graph.num_vertices g
    || not (List.for_all (Graph.mem_vertex g) order)
  then false
  else begin
    let f = Flat.of_graph g in
    let idx_order = List.map (Flat.index f) order in
    (* Reject repeats: combined with the length check above this makes
       [order] a permutation of the vertex set. *)
    let seen = Array.make (max 1 (Flat.capacity f)) false in
    let distinct =
      List.for_all
        (fun v ->
          if seen.(v) then false
          else begin
            seen.(v) <- true;
            true
          end)
        idx_order
    in
    distinct && flat_is_peo f idx_order
  end

let is_chordal g = flat_is_chordal (Flat.of_graph g)

let simplicial_vertices g =
  List.filter
    (fun v -> Graph.is_clique g (ISet.elements (Graph.neighbors g v)))
    (Graph.vertices g)

(* ------------------------------------------------------------------ *)
(* One elimination pass                                                *)
(* ------------------------------------------------------------------ *)

(* Everything this module (and {!Clique_tree}) derives from a PEO reads
   one record: one flat snapshot, one MCS, one PEO check.  Vertices are
   addressed by their position in the order, so the later-neighbour
   sets are plain arrays. *)
type peo = { vertices : Graph.vertex array; later : int array array }

let peo g =
  let f = Flat.of_graph g in
  let order = flat_mcs_order f in
  if not (flat_is_peo f order) then None
  else begin
    let idx = Array.of_list order in
    let pos = Flat.scratch1 f in
    Array.iteri (fun p v -> pos.(v) <- p) idx;
    let later =
      Array.mapi
        (fun p v ->
          Array.of_list
            (Flat.fold_neighbors f v
               (fun acc u -> if pos.(u) > p then pos.(u) :: acc else acc)
               []))
        idx
    in
    Some { vertices = Array.map (Flat.label f) idx; later }
  end

let peo_omega e =
  Array.fold_left (fun m l -> max m (1 + Array.length l)) 0 e.later

(* C_p = {p} ∪ later(p) is a clique of the PEO.  It fails to be maximal
   exactly when some q has p as its follower (earliest later neighbour)
   and |later(q)| = |later(p)| + 1: then later(q) = C_p, because
   later(q) \ {p} is a clique of vertices after p, all adjacent to p. *)
let maximal_heads e =
  let n = Array.length e.vertices in
  let dropped = Array.make n false in
  Array.iter
    (fun l ->
      if Array.length l > 0 then begin
        let follower = Array.fold_left min max_int l in
        if Array.length l = Array.length e.later.(follower) + 1 then
          dropped.(follower) <- true
      end)
    e.later;
  List.filter (fun p -> not dropped.(p)) (List.init n Fun.id)

let clique_at e p =
  Array.fold_left
    (fun s q -> ISet.add e.vertices.(q) s)
    (ISet.singleton e.vertices.(p))
    e.later.(p)

let require_peo g fn =
  match peo g with
  | Some e -> e
  | None -> invalid_arg (Printf.sprintf "Chordal.%s: graph is not chordal" fn)

let omega g = peo_omega (require_peo g "omega")

let color g =
  let e = require_peo g "color" in
  Coloring.greedy g (List.rev (Array.to_list e.vertices))

let maximal_cliques g =
  let e = require_peo g "maximal_cliques" in
  List.map (clique_at e) (maximal_heads e)

let find_chordless_cycle g =
  if is_chordal g then None
  else
    (* Look for a vertex v with two non-adjacent neighbors u, w connected
       by a path avoiding v and all other neighbors of v: the shortest
       such path closes a chordless cycle through v. *)
    let shortest_path_avoiding g src dst forbidden =
      let q = Queue.create () in
      let parent = Hashtbl.create 16 in
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
            ISet.iter
              (fun u ->
                if (not (Hashtbl.mem parent u)) && not (ISet.mem u forbidden)
                then begin
                  Hashtbl.replace parent u v;
                  Queue.add u q
                end)
              (Graph.neighbors g v);
            bfs ()
          end
      in
      bfs ()
    in
    let result = ref None in
    let check v =
      if !result = None then
        let ns = ISet.elements (Graph.neighbors g v) in
        List.iter
          (fun u ->
            List.iter
              (fun w ->
                if !result = None && u < w && not (Graph.mem_edge g u w) then
                  let forbidden =
                    ISet.add v
                      (ISet.remove u (ISet.remove w (Graph.neighbors g v)))
                  in
                  match shortest_path_avoiding g u w forbidden with
                  | Some p -> result := Some (v :: p)
                  | None -> ())
              ns)
          ns
    in
    List.iter check (Graph.vertices g);
    !result

(* ------------------------------------------------------------------ *)
(* Reference implementations on the persistent representation: the
   independent re-derivation Lint and the certifier's chordality claim
   run, and the baseline the flat versions are tested against.          *)
(* ------------------------------------------------------------------ *)

module Reference = struct
  (* Later-neighbor map: for each vertex, its neighbors occurring
     strictly after it in [order]. *)
  let later_neighbors g order =
    let position = Hashtbl.create (List.length order) in
    List.iteri (fun i v -> Hashtbl.replace position v i) order;
    let later v =
      let pv = Hashtbl.find position v in
      ISet.filter (fun u -> Hashtbl.find position u > pv) (Graph.neighbors g v)
    in
    (position, later)

  let mcs_order g =
    let n = Graph.num_vertices g in
    if n = 0 then []
    else begin
      let weight = Hashtbl.create n in
      let visited = Hashtbl.create n in
      List.iter (fun v -> Hashtbl.replace weight v 0) (Graph.vertices g);
      let buckets = Hashtbl.create n in
      let bucket w =
        match Hashtbl.find_opt buckets w with Some s -> s | None -> ISet.empty
      in
      List.iter
        (fun v -> Hashtbl.replace buckets 0 (ISet.add v (bucket 0)))
        (Graph.vertices g);
      let max_w = ref 0 in
      let visit_order = ref [] in
      for _ = 1 to n do
        (* Bucket 0 keeps every vertex until it is visited, so while one
           of the [n] visits is still to come, the scan finds an
           unvisited vertex at weight 0 at the latest. *)
        let rec pick w =
          let s =
            ISet.filter (fun v -> not (Hashtbl.mem visited v)) (bucket w)
          in
          Hashtbl.replace buckets w s;
          match ISet.choose_opt s with
          | Some v -> (v, w)
          | None when w > 0 -> pick (w - 1)
          | None ->
              invalid_arg
                "Chordal.Reference.mcs_order: no unvisited vertex left in \
                 bucket 0 before every vertex was visited"
        in
        let v, w = pick !max_w in
        max_w := w;
        Hashtbl.replace visited v ();
        visit_order := v :: !visit_order;
        ISet.iter
          (fun u ->
            if not (Hashtbl.mem visited u) then begin
              let wu = Hashtbl.find weight u in
              Hashtbl.replace weight u (wu + 1);
              Hashtbl.replace buckets (wu + 1) (ISet.add u (bucket (wu + 1)));
              if wu + 1 > !max_w then max_w := wu + 1
            end)
          (Graph.neighbors g v)
      done;
      !visit_order
    end

  let is_perfect_elimination_order g order =
    if
      List.length order <> Graph.num_vertices g
      || not (List.for_all (Graph.mem_vertex g) order)
    then false
    else
      let position, later = later_neighbors g order in
      List.for_all
        (fun v ->
          let ln = later v in
          match
            ISet.fold
              (fun u best ->
                match best with
                | Some b
                  when Hashtbl.find position b <= Hashtbl.find position u ->
                    best
                | _ -> Some u)
              ln None
          with
          | None -> true
          | Some follower ->
              ISet.subset (ISet.remove follower ln) (Graph.neighbors g follower))
        order

  let is_chordal g = is_perfect_elimination_order g (mcs_order g)
end
