module Graph = Rc_graph.Graph
module ISet = Graph.ISet
module Chordal = Rc_graph.Chordal
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module IH = Hashtbl.Make (Int)

type claim = Conservative | Chordality_preserved

type answer = {
  classes : (Graph.vertex * Graph.vertex list) list;
  merged_graph : Graph.t;
  coalesced : Problem.affinity list;
  gave_up : Problem.affinity list;
  claimed_weight : int;
}

type violation =
  | Invalid_problem of Problem.error
  | Unknown_class_member of { rep : Graph.vertex; member : Graph.vertex }
  | Representative_outside_class of Graph.vertex
  | Vertex_in_two_classes of Graph.vertex
  | Vertex_not_covered of Graph.vertex
  | Interference_inside_class of {
      u : Graph.vertex;
      v : Graph.vertex;
      rep : Graph.vertex;
    }
  | Missing_merged_vertex of Graph.vertex
  | Spurious_merged_vertex of Graph.vertex
  | Missing_projected_edge of { u : Graph.vertex; v : Graph.vertex }
  | Spurious_merged_edge of { u : Graph.vertex; v : Graph.vertex }
  | Misclassified_affinity of {
      u : Graph.vertex;
      v : Graph.vertex;
      claimed_coalesced : bool;
    }
  | Affinity_unaccounted of { u : Graph.vertex; v : Graph.vertex }
  | Weight_mismatch of { claimed : int; actual : int }
  | Not_conservative of { k : int }
  | Chordality_lost
  | Merge_log_divergence of { reason : string }

type report = { claims : claim list; violations : violation list }

let pp_violation ppf = function
  | Invalid_problem e ->
      Format.fprintf ppf "invalid problem: %a" Problem.pp_error e
  | Unknown_class_member { rep; member } ->
      Format.fprintf ppf "class of %d contains %d, not a vertex of the graph"
        rep member
  | Representative_outside_class r ->
      Format.fprintf ppf "representative %d is not a member of its class" r
  | Vertex_in_two_classes v ->
      Format.fprintf ppf "vertex %d appears in two classes" v
  | Vertex_not_covered v ->
      Format.fprintf ppf "vertex %d is covered by no class" v
  | Interference_inside_class { u; v; rep } ->
      Format.fprintf ppf
        "interfering vertices %d and %d are both in the class of %d" u v rep
  | Missing_merged_vertex v ->
      Format.fprintf ppf "representative %d is missing from the merged graph" v
  | Spurious_merged_vertex v ->
      Format.fprintf ppf
        "merged graph contains %d, which represents no class" v
  | Missing_projected_edge { u; v } ->
      Format.fprintf ppf
        "projected interference (%d, %d) is missing from the merged graph" u v
  | Spurious_merged_edge { u; v } ->
      Format.fprintf ppf
        "merged-graph edge (%d, %d) corresponds to no original interference" u
        v
  | Misclassified_affinity { u; v; claimed_coalesced } ->
      Format.fprintf ppf
        "affinity (%d, %d) claimed %s, but the classes say otherwise" u v
        (if claimed_coalesced then "coalesced" else "given up")
  | Affinity_unaccounted { u; v } ->
      Format.fprintf ppf
        "affinity (%d, %d) unknown, duplicated, or missing from the \
         classification"
        u v
  | Weight_mismatch { claimed; actual } ->
      Format.fprintf ppf "claimed removed weight %d, recomputed %d" claimed
        actual
  | Not_conservative { k } ->
      Format.fprintf ppf
        "claimed conservative, but the merged graph is not greedy-%d-colorable"
        k
  | Chordality_lost ->
      Format.fprintf ppf
        "claimed chordality-preserving on a chordal input, but the merged \
         graph is not chordal"
  | Merge_log_divergence { reason } ->
      Format.fprintf ppf "merge log does not realize the answer: %s" reason

let violation_to_string v = Format.asprintf "%a" pp_violation v

let pp_report ppf r =
  match r.violations with
  | [] -> Format.fprintf ppf "certified OK (%d claims)" (List.length r.claims)
  | vs ->
      Format.fprintf ppf "@[<v>%d violation(s):@,%a@]" (List.length vs)
        (Format.pp_print_list pp_violation)
        vs

let ok r = r.violations = []

let answer_of_solution (sol : Coalescing.solution) =
  {
    classes = Coalescing.classes sol.state;
    merged_graph = Coalescing.graph sol.state;
    coalesced = sol.coalesced;
    gave_up = sol.gave_up;
    claimed_weight = Coalescing.coalesced_weight sol;
  }

(* ------------------------------------------------------------------ *)
(* Dense views of persistent graphs                                    *)
(* ------------------------------------------------------------------ *)

(* Label -> dense index over a strictly increasing vertex table:
   direct-mapped when the labels span a dense range (the common case:
   vertex ids are small ints), hashed only for a sparse one.  -1 for a
   label that is not a vertex. *)
type index = Direct of { lo : int; map : int array } | Hashed of int IH.t

let index_labels labels =
  let n = Array.length labels in
  if n = 0 then Direct { lo = 0; map = [||] }
  else
    let lo = labels.(0) and hi = labels.(n - 1) in
    let span = hi - lo in
    if span >= 0 && span < (8 * n) + 64 then begin
      let map = Array.make (span + 1) (-1) in
      Array.iteri (fun i v -> map.(v - lo) <- i) labels;
      Direct { lo; map }
    end
    else begin
      let t = IH.create (2 * n) in
      Array.iteri (fun i v -> IH.replace t v i) labels;
      Hashed t
    end

let index_of ix (x : int) =
  match ix with
  | Direct { lo; map } ->
      let o = x - lo in
      if o >= 0 && o < Array.length map then Array.unsafe_get map o else -1
  | Hashed t -> ( match IH.find t x with i -> i | exception Not_found -> -1)

(* A persistent graph's rows in one walk: the sorted vertex table, its
   index, and each vertex's neighbour set by dense index. *)
type table = { labels : int array; index : index; rows : ISet.t array }

let table_of_graph g =
  let n = Graph.num_vertices g in
  let labels = Array.make n 0 and rows = Array.make n ISet.empty in
  ignore
    (Graph.fold_rows
       (fun v ns i ->
         labels.(i) <- v;
         rows.(i) <- ns;
         i + 1)
       g 0
      : int);
  { labels; index = index_labels labels; rows }

(* Greedy-k peeling (Section 2.2) over CSR rows with a degree array and
   a worklist.  A vertex is queued once, when its degree first drops
   below k (a later decrement only takes it further below k - 1), so
   the graph is greedy-k-colorable iff all [n] vertices get queued. *)
let greedy_k ~off ~adj n k =
  let deg = Array.make n 0 and work = Array.make n 0 in
  let queued = ref 0 in
  for v = 0 to n - 1 do
    let d = off.(v + 1) - off.(v) in
    deg.(v) <- d;
    if d < k then begin
      work.(!queued) <- v;
      incr queued
    end
  done;
  let next = ref 0 in
  while !next < !queued do
    let v = work.(!next) in
    incr next;
    for e = off.(v) to off.(v + 1) - 1 do
      let u = adj.(e) in
      let d = deg.(u) - 1 in
      deg.(u) <- d;
      if d = k - 1 then begin
        work.(!queued) <- u;
        incr queued
      end
    done
  done;
  !queued = n

(* The same peeling on a persistent graph, over CSR rows of its table. *)
let greedy_k_graph g k =
  let t = table_of_graph g in
  let n = Array.length t.labels in
  let off = Array.make (n + 1) 0 in
  Array.iteri (fun i s -> off.(i + 1) <- off.(i) + ISet.cardinal s) t.rows;
  let adj = Array.make off.(n) 0 in
  let put x e =
    adj.(e) <- index_of t.index x;
    e + 1
  in
  Array.iteri (fun i s -> ignore (ISet.fold put s off.(i) : int)) t.rows;
  greedy_k ~off ~adj n k

(* ------------------------------------------------------------------ *)
(* The certifier                                                       *)
(* ------------------------------------------------------------------ *)

(* Every check runs on int arrays built from one walk of the problem
   graph.  Violations are reported in a fixed order — problem errors,
   partition, coverage, interference (by edge), merged vertices, merged
   edges, affinities, weight, claims — each family sorted by label as
   the persistent graphs enumerate them.  Labels are sorted only for a
   failing answer, affinity pairs only for a problem whose list is not
   in normalized order. *)
let certify ?(claims = []) (p : Problem.t) (a : answer) =
  let viols = ref [] in
  let add v = viols := v :: !viols in
  (match Problem.validate p with
  | Ok () -> ()
  | Error es -> List.iter (fun e -> add (Invalid_problem e)) es);
  let g = table_of_graph p.graph in
  let n = Array.length g.labels in
  (* The partition.  A class is named by its representative's label, as
     the answer names it: class ids are handed out per distinct label
     when the first member is recorded under it, so every class id has
     members and there are at most [n]. *)
  let cls = Array.make n (-1) in
  let clabel = Array.make n 0 in
  let rep_class = Array.make n (-1) in
  let extra = IH.create 1 in
  let nc = ref 0 in
  let class_of_label x =
    let i = index_of g.index x in
    if i >= 0 then rep_class.(i)
    else match IH.find extra x with c -> c | exception Not_found -> -1
  in
  let class_of_rep rep =
    match class_of_label rep with
    | -1 ->
        let c = !nc in
        incr nc;
        clabel.(c) <- rep;
        let i = index_of g.index rep in
        if i >= 0 then rep_class.(i) <- c else IH.replace extra rep c;
        c
    | c -> c
  in
  List.iter
    (fun (rep, members) ->
      if not (List.exists (fun (m : int) -> m = rep) members) then
        add (Representative_outside_class rep);
      let c = ref (-1) in
      List.iter
        (fun m ->
          let i = index_of g.index m in
          if i < 0 then add (Unknown_class_member { rep; member = m })
          else if cls.(i) >= 0 then add (Vertex_in_two_classes m)
          else begin
            if !c < 0 then c := class_of_rep rep;
            cls.(i) <- !c
          end)
        members)
    a.classes;
  let nc = !nc in
  for i = 0 to n - 1 do
    if cls.(i) < 0 then add (Vertex_not_covered g.labels.(i))
  done;
  (* Members of each class as linked lists through [next]. *)
  let first = Array.make nc (-1) and next = Array.make n (-1) in
  for i = n - 1 downto 0 do
    let c = cls.(i) in
    if c >= 0 then begin
      next.(i) <- first.(c);
      first.(c) <- i
    end
  done;
  (* The merged graph's rows by class, in one walk.  A merged vertex
     that names no class, or fewer merged vertices than classes, makes
     the graphs differ. *)
  let merged = a.merged_graph in
  let mrow = Array.make nc ISet.empty in
  let named =
    Graph.fold_rows
      (fun x ns named ->
        match class_of_label x with
        | -1 -> -1
        | c ->
            mrow.(c) <- ns;
            if named < 0 then named else named + 1)
      merged 0
  in
  (* Quotient rows by class id, stamped from the members' rows
     ([stamp.(d) = c] once class [d] is in row [c]), each held against
     its merged row as soon as it is complete: equal sizes and every
     merged neighbour stamped make the rows equal. *)
  let stamp = Array.make nc (-1) in
  let qoff = Array.make (nc + 1) 0 in
  let qadj = ref (Array.make ((4 * nc) + 16) 0) in
  let pos = ref 0 and clash = ref false and cur = ref 0 in
  let stamp_neighbour x =
    let d = cls.(index_of g.index x) in
    if d = !cur then clash := true
    else if d >= 0 && stamp.(d) <> !cur then begin
      stamp.(d) <- !cur;
      if !pos = Array.length !qadj then begin
        let grown = Array.make (2 * !pos) 0 in
        Array.blit !qadj 0 grown 0 !pos;
        qadj := grown
      end;
      !qadj.(!pos) <- d;
      incr pos
    end
  in
  let same = ref (named = nc) and count = ref 0 in
  let stamped x =
    incr count;
    let d = class_of_label x in
    d >= 0 && stamp.(d) = !cur
  in
  for c = 0 to nc - 1 do
    qoff.(c) <- !pos;
    cur := c;
    let v = ref first.(c) in
    while !v >= 0 do
      ISet.iter stamp_neighbour g.rows.(!v);
      v := next.(!v)
    done;
    if !same then begin
      count := 0;
      same := ISet.for_all stamped mrow.(c) && !count = !pos - qoff.(c)
    end
  done;
  qoff.(nc) <- !pos;
  let qadj = !qadj and same = !same in
  if !clash then
    for i = 0 to n - 1 do
      let c = cls.(i) in
      if c >= 0 then
        ISet.iter
          (fun x ->
            let j = index_of g.index x in
            if j > i && cls.(j) = c then
              add
                (Interference_inside_class
                   { u = g.labels.(i); v = x; rep = clabel.(c) }))
          g.rows.(i)
    done;
  if not same then begin
    let by_label = Array.init nc Fun.id in
    Array.sort (fun c d -> Int.compare clabel.(c) clabel.(d)) by_label;
    Array.iter
      (fun c ->
        if not (Graph.mem_vertex merged clabel.(c)) then
          add (Missing_merged_vertex clabel.(c)))
      by_label;
    Graph.fold_vertices
      (fun x () -> if class_of_label x < 0 then add (Spurious_merged_vertex x))
      merged ();
    Array.iter
      (fun c ->
        let lc = clabel.(c) in
        let row =
          Array.init
            (qoff.(c + 1) - qoff.(c))
            (fun e -> clabel.(qadj.(qoff.(c) + e)))
        in
        Array.sort Int.compare row;
        Array.iter
          (fun ld ->
            if lc < ld && not (Graph.mem_edge merged lc ld) then
              add (Missing_projected_edge { u = lc; v = ld }))
          row)
      by_label;
    (* Merged edges arrive grouped by their lower endpoint: mark that
       class's quotient row once per group. *)
    let mark = Array.make nc (-1) and marked = ref (-1) in
    Graph.fold_edges
      (fun u v () ->
        let cu = class_of_label u and cv = class_of_label v in
        if cu >= 0 && cu <> !marked then begin
          for e = qoff.(cu) to qoff.(cu + 1) - 1 do
            mark.(qadj.(e)) <- cu
          done;
          marked := cu
        end;
        if not (cu >= 0 && cv >= 0 && mark.(cv) = cu) then
          add (Spurious_merged_edge { u; v }))
      merged ()
  end;
  (* Affinity classification: each problem affinity appears exactly
     once, under the pair the problem names it by, in the list the
     partition dictates.  The pairs are bisected in a sorted key table:
     a normalized problem's own list, or a sorted copy of any other, in
     which a repeated pair is found at its leftmost copy. *)
  let same_class u v =
    let iu = index_of g.index u and iv = index_of g.index v in
    iu >= 0 && iv >= 0 && cls.(iu) >= 0 && cls.(iu) = cls.(iv)
  in
  let na = List.length p.affinities in
  let au = Array.make na 0 and av = Array.make na 0 in
  List.iteri
    (fun i (f : Problem.affinity) ->
      au.(i) <- f.u;
      av.(i) <- f.v)
    p.affinities;
  let sorted = ref true in
  for i = 1 to na - 1 do
    if au.(i - 1) > au.(i) || (au.(i - 1) = au.(i) && av.(i - 1) >= av.(i))
    then sorted := false
  done;
  let sorted = !sorted in
  let ku, kv =
    if sorted then (au, av)
    else begin
      let perm = Array.init na Fun.id in
      Array.sort
        (fun i j ->
          match Int.compare au.(i) au.(j) with
          | 0 -> Int.compare av.(i) av.(j)
          | c -> c)
        perm;
      (Array.map (fun i -> au.(i)) perm, Array.map (fun i -> av.(i)) perm)
    end
  in
  let slot (u : int) (v : int) =
    let lo = ref 0 and hi = ref na in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if ku.(mid) < u || (ku.(mid) = u && kv.(mid) < v) then lo := mid + 1
      else hi := mid
    done;
    if !lo < na && ku.(!lo) = u && kv.(!lo) = v then !lo else -1
  in
  let seen = Bytes.make na '\000' in
  let scan claimed_coalesced =
    List.iter (fun (f : Problem.affinity) ->
        let s = slot f.u f.v in
        if s < 0 || Bytes.get seen s <> '\000' then
          add (Affinity_unaccounted { u = f.u; v = f.v })
        else begin
          Bytes.set seen s '\001';
          if same_class f.u f.v <> claimed_coalesced then
            add
              (Misclassified_affinity { u = f.u; v = f.v; claimed_coalesced })
        end)
  in
  scan true a.coalesced;
  scan false a.gave_up;
  (* Affinities neither list named, and the removed-move weight
     recomputed from the partition alone. *)
  let actual = ref 0 in
  List.iteri
    (fun i (f : Problem.affinity) ->
      let s = if sorted then i else slot f.u f.v in
      if Bytes.get seen s = '\000' then
        add (Affinity_unaccounted { u = f.u; v = f.v });
      if same_class f.u f.v then actual := !actual + f.weight)
    p.affinities;
  if !actual <> a.claimed_weight then
    add (Weight_mismatch { claimed = a.claimed_weight; actual = !actual });
  (* Claims, re-established on the answer's merged graph as given —
     peeled on the stamped rows when they equal it, on its own rows
     otherwise — independent of the flat/speculative machinery under
     audit. *)
  let greedy =
    lazy
      (if same then greedy_k ~off:qoff ~adj:qadj nc p.k
       else greedy_k_graph merged p.k)
  in
  List.iter
    (function
      | Conservative ->
          if not (Lazy.force greedy) then add (Not_conservative { k = p.k })
      | Chordality_preserved ->
          if
            Chordal.Reference.is_chordal p.graph
            && not (Chordal.Reference.is_chordal merged)
          then add Chordality_lost)
    claims;
  { claims; violations = List.rev !viols }

let certify_solution ?claims p sol = certify ?claims p (answer_of_solution sol)

let check_merge_log (p : Problem.t) log (a : answer) =
  let exception Diverged of string in
  try
    let st =
      List.fold_left
        (fun st (u, v) ->
          match Coalescing.merge st u v with
          | Some st' -> st'
          | None ->
              raise
                (Diverged
                   (Printf.sprintf
                      "merge (%d, %d) of the log is infeasible when replayed"
                      u v)))
        (Coalescing.initial p.graph)
        log
    in
    let norm classes =
      List.map (fun (r, ms) -> (r, List.sort compare ms)) classes
      |> List.sort compare
    in
    let viols = ref [] in
    if norm (Coalescing.classes st) <> norm a.classes then
      viols :=
        Merge_log_divergence
          { reason = "replayed classes differ from the answer's" }
        :: !viols;
    if not (Graph.equal (Coalescing.graph st) a.merged_graph) then
      viols :=
        Merge_log_divergence
          { reason = "replayed merged graph differs from the answer's" }
        :: !viols;
    List.rev !viols
  with Diverged reason -> [ Merge_log_divergence { reason } ]
