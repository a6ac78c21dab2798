module Graph = Rc_graph.Graph
module Greedy_k = Rc_graph.Greedy_k
module Coloring = Rc_graph.Coloring
module Flat = Rc_graph.Flat
module Spec = Coalescing.Speculation

(* Affinities sorted by decreasing weight (ties by endpoints) plus the
   suffix-weight table the branch-and-bound prunes with:
   suffix.(i) = total weight of affinities.(i..). *)
let sorted_affinities (p : Problem.t) =
  let affinities =
    List.sort
      (fun (a : Problem.affinity) b ->
        compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
      p.affinities
  in
  let arr = Array.of_list affinities in
  let n = Array.length arr in
  let suffix = Array.make (n + 1) 0 in
  for i = n - 1 downto 0 do
    suffix.(i) <- suffix.(i + 1) + arr.(i).weight
  done;
  (arr, suffix)

(* What the merged graph must satisfy at accepted leaves. *)
type target = Any | Greedy_k_colorable | K_colorable

(* Depth-first search over affinity decisions, running entirely on one
   flat speculation context: branching merges on the flat graph, the
   leaf verdict is the in-place linear kernel, and backtracking is a
   rollback — the persistent graph is touched exactly once, to realize
   the best merge log found.  The weight bound prunes branches that
   cannot beat the incumbent. *)
let search ?(floor = -1) ?(stop = fun () -> false) (p : Problem.t) ~target =
  let affinities, suffix = sorted_affinities p in
  let spec = Spec.of_state (Coalescing.initial p.graph) in
  let ticks = ref 0 in
  let poll () =
    incr ticks;
    if !ticks land 1023 = 0 && stop () then raise Cancel.Stopped
  in
  let leaf_ok () =
    match target with
    | Any -> true
    | Greedy_k_colorable ->
        Greedy_k.flat_is_greedy_k_colorable (Spec.flat spec) p.k
    | K_colorable ->
        (* No flat exact-coloring kernel (tiny instances only): convert
           the merged graph at the leaf. *)
        Coloring.k_colorable (Flat.to_graph (Spec.flat spec)) p.k <> None
  in
  let best = ref None in
  let best_weight = ref floor in
  let rec go i gained =
    poll ();
    if gained + suffix.(i) <= !best_weight then ()
    else if i = Array.length affinities then begin
      if leaf_ok () then begin
        best := Some (Spec.merge_log spec);
        best_weight := gained
      end
    end
    else begin
      let a = affinities.(i) in
      if Spec.same_class spec a.u a.v then go (i + 1) (gained + a.weight)
      else begin
        (* Branch 1: coalesce (if interference allows). *)
        let m = Spec.mark spec in
        if Spec.merge spec a.u a.v then begin
          go (i + 1) (gained + a.weight);
          Spec.rollback spec m
        end
        else Spec.release spec m;
        (* Branch 2: give up. *)
        go (i + 1) gained
      end
    end
  in
  go 0 0;
  match !best with
  | Some log ->
      Some
        (Coalescing.solution_of_state p
           (Spec.replay (Coalescing.initial p.graph) log))
  | None -> None

let search_exn ?stop p ~target =
  match search ?stop p ~target with
  | Some sol -> sol
  | None ->
      (* Even the empty coalescing failed the leaf check. *)
      invalid_arg "Exact.search: the uncoalesced graph is not acceptable"

let aggressive p = search_exn p ~target:Any

let conservative ?stop ?prime (p : Problem.t) =
  if not (Greedy_k.is_greedy_k_colorable p.graph p.k) then
    invalid_arg "Exact.conservative: input graph is not greedy-k-colorable";
  match prime with
  | None -> search_exn ?stop p ~target:Greedy_k_colorable
  | Some incumbent ->
      (* Oracle-seeded search: the incumbent's weight floors the
         branch-and-bound (branches that cannot strictly beat it are
         pruned), and if nothing beats it the incumbent is already
         optimal and returned as-is. *)
      let floor = Coalescing.coalesced_weight incumbent in
      (match search ~floor ?stop p ~target:Greedy_k_colorable with
      | Some better -> better
      | None -> incumbent)

let conservative_k_colorable (p : Problem.t) =
  if Coloring.k_colorable p.graph p.k = None then
    invalid_arg "Exact.conservative_k_colorable: input graph is not k-colorable";
  search_exn p ~target:K_colorable

let decoalesce (p : Problem.t) st =
  let all =
    List.for_all
      (fun (a : Problem.affinity) -> Coalescing.same_class st a.u a.v)
      p.affinities
  in
  if not all then
    invalid_arg "Exact.decoalesce: state does not coalesce every affinity";
  conservative p

let incremental (p : Problem.t) x y =
  if Graph.mem_edge p.graph x y then false
  else if x = y then Coloring.k_colorable p.graph p.k <> None
  else
    match Coalescing.merge (Coalescing.initial p.graph) x y with
    | None -> false
    | Some st -> Coloring.k_colorable (Coalescing.graph st) p.k <> None
