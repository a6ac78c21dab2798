module ISet = Set.Make (Int)
module IMap = Map.Make (Int)

type vertex = int

type t = { adj : ISet.t IMap.t }

let empty = { adj = IMap.empty }

let mem_vertex g v = IMap.mem v g.adj

let add_vertex g v =
  if mem_vertex g v then g else { adj = IMap.add v ISet.empty g.adj }

let neighbors g v =
  match IMap.find_opt v g.adj with Some s -> s | None -> ISet.empty

let mem_edge g u v = ISet.mem v (neighbors g u)

let add_edge g u v =
  if u = v then invalid_arg "Graph.add_edge: self-loop";
  let g = add_vertex (add_vertex g u) v in
  let adj =
    g.adj
    |> IMap.add u (ISet.add v (neighbors g u))
    |> IMap.add v (ISet.add u (neighbors g v))
  in
  { adj }

let remove_edge g u v =
  let remove x y m =
    match IMap.find_opt x m with
    | None -> m
    | Some s -> IMap.add x (ISet.remove y s) m
  in
  { adj = remove u v (remove v u g.adj) }

let remove_vertex g v =
  match IMap.find_opt v g.adj with
  | None -> g
  | Some ns ->
      let adj =
        ISet.fold (fun u m -> IMap.add u (ISet.remove v (IMap.find u m)) m) ns g.adj
      in
      { adj = IMap.remove v adj }

let of_edges ?(vertices = []) es =
  let g = List.fold_left add_vertex empty vertices in
  List.fold_left (fun g (u, v) -> add_edge g u v) g es

(* Symmetry is checked as the rows arrive: every entry (v, u) with
   u < v must find v in u's finished set, and the entries with u > v
   must be exactly as many.  Mirrors are distinct entries, so the
   lower entries map one-to-one onto upper ones, and equal counts
   leave no upper entry (nor a neighbour without a row) unmirrored. *)
let of_rows rows =
  let asymmetric () = invalid_arg "Graph.of_rows: asymmetric adjacency" in
  let lower = ref 0 and upper = ref 0 and prev = ref None in
  let adj =
    Seq.fold_left
      (fun m (v, ns) ->
        (match !prev with
        | Some w when w >= v ->
            invalid_arg "Graph.of_rows: vertices not strictly increasing"
        | _ -> prev := Some v);
        let s = ISet.of_list ns in
        ISet.iter
          (fun u ->
            if u > v then incr upper
            else if u = v then invalid_arg "Graph.of_rows: self-loop"
            else
              match IMap.find u m with
              | su when ISet.mem v su -> incr lower
              | _ -> asymmetric ()
              | exception Not_found -> asymmetric ())
          s;
        IMap.add v s m)
      IMap.empty rows
  in
  if !lower <> !upper then asymmetric ();
  { adj }

let union g1 g2 =
  IMap.fold
    (fun v ns g ->
      let g = add_vertex g v in
      ISet.fold (fun u g -> add_edge g v u) ns g)
    g2.adj g1

let degree g v = ISet.cardinal (neighbors g v)

let vertices g = IMap.fold (fun v _ acc -> v :: acc) g.adj [] |> List.rev

let vertex_set g = IMap.fold (fun v _ acc -> ISet.add v acc) g.adj ISet.empty

let num_vertices g = IMap.cardinal g.adj

let fold_vertices f g init = IMap.fold (fun v _ acc -> f v acc) g.adj init

let fold_rows f g init = IMap.fold f g.adj init

let fold_edges f g init =
  IMap.fold
    (fun u ns acc ->
      ISet.fold (fun v acc -> if u < v then f u v acc else acc) ns acc)
    g.adj init

let iter_edges f g = fold_edges (fun u v () -> f u v) g ()

let edges g = fold_edges (fun u v acc -> (u, v) :: acc) g [] |> List.rev

let num_edges g = fold_edges (fun _ _ n -> n + 1) g 0

let max_vertex g =
  match IMap.max_binding_opt g.adj with Some (v, _) -> v | None -> -1

let is_clique g vs =
  let rec go = function
    | [] -> true
    | v :: rest ->
        List.for_all (fun u -> u = v || mem_edge g u v) rest && go rest
  in
  go vs

let merge g u v =
  if not (mem_vertex g u && mem_vertex g v) then
    invalid_arg "Graph.merge: absent vertex";
  if u = v then invalid_arg "Graph.merge: identical vertices";
  if mem_edge g u v then invalid_arg "Graph.merge: adjacent vertices";
  let nv = neighbors g v in
  let g = remove_vertex g v in
  ISet.fold (fun w g -> add_edge g u w) nv g

(* Walks [keep], not the whole graph: splitting a graph into many small
   parts then costs the parts' sizes, not parts * |V|. *)
let induced g keep =
  ISet.fold
    (fun v acc ->
      match IMap.find_opt v g.adj with
      | Some ns -> IMap.add v (ISet.inter ns keep) acc
      | None -> acc)
    keep IMap.empty
  |> fun adj -> { adj }

let map_vertices f g =
  fold_vertices
    (fun v acc -> add_vertex acc (f v))
    g empty
  |> fun base ->
  fold_edges
    (fun u v acc ->
      let fu = f u and fv = f v in
      if fu = fv then invalid_arg "Graph.map_vertices: not injective on an edge";
      add_edge acc fu fv)
    g base

let complement g =
  let vs = vertices g in
  let base = List.fold_left add_vertex empty vs in
  let rec go acc = function
    | [] -> acc
    | v :: rest ->
        let acc =
          List.fold_left
            (fun acc u -> if mem_edge g u v then acc else add_edge acc u v)
            acc rest
        in
        go acc rest
  in
  go base vs

let clique n =
  let rec go g i =
    if i >= n then g
    else
      let g = add_vertex g i in
      let rec add g j = if j >= i then g else add (add_edge g i j) (j + 1) in
      go (add g 0) (i + 1)
  in
  go empty 0

let cycle n =
  if n < 3 then invalid_arg "Graph.cycle: need n >= 3";
  let rec go g i =
    if i >= n then g else go (add_edge g i ((i + 1) mod n)) (i + 1)
  in
  go empty 0

let path n =
  let g = if n > 0 then add_vertex empty 0 else empty in
  let rec go g i = if i >= n then g else go (add_edge g (i - 1) i) (i + 1) in
  if n <= 1 then g else go g 1

let connected_components g =
  let visited = Hashtbl.create 16 in
  let component v0 =
    let rec bfs frontier acc =
      match frontier with
      | [] -> acc
      | v :: rest ->
          if Hashtbl.mem visited v then bfs rest acc
          else begin
            Hashtbl.add visited v ();
            let acc = ISet.add v acc in
            let next =
              ISet.fold
                (fun u l -> if Hashtbl.mem visited u then l else u :: l)
                (neighbors g v) rest
            in
            bfs next acc
          end
    in
    bfs [ v0 ] ISet.empty
  in
  fold_vertices
    (fun v acc -> if Hashtbl.mem visited v then acc else component v :: acc)
    g []
  |> List.rev

let is_connected g = List.length (connected_components g) <= 1

let pp ppf g =
  Format.fprintf ppf "@[<hov 2>graph(%d vertices,@ %d edges:@ %a)@]"
    (num_vertices g) (num_edges g)
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges g)

let equal g1 g2 = IMap.equal ISet.equal g1.adj g2.adj
