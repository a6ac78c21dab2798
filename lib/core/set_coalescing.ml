module Graph = Rc_graph.Graph
module Flat = Rc_graph.Flat
module Greedy_k = Rc_graph.Greedy_k
module Spec = Coalescing.Speculation

(* All size-[n] subsets of [xs], by decreasing combined weight.  The
   enumeration threads an accumulator (prefix grown head-first, result
   pushed per complete subset) instead of the naive
   [List.map cons ... @ subsets ...] recursion, whose repeated appends
   made it quadratic in the C(m, n) output size.  The final order is
   independent of the enumeration: the sort key (weight, members) is
   injective over distinct subsets. *)
let subsets_by_weight n xs =
  let out = ref [] in
  (* [prefix] holds the chosen elements newest-first; a complete subset
     is reversed back into [xs] order. *)
  let rec go n xs prefix =
    if n = 0 then out := List.rev prefix :: !out
    else
      match xs with
      | [] -> ()
      | x :: rest ->
          go (n - 1) rest (x :: prefix);
          go n rest prefix
  in
  go n xs [];
  !out
  |> List.map (fun s ->
         (List.fold_left (fun w (a : Problem.affinity) -> w + a.weight) 0 s, s))
  |> List.sort (fun (w1, s1) (w2, s2) -> compare (w2, s1) (w1, s2))
  |> List.map snd

(* The whole search lives on one speculation context: candidate sets
   are probed with a single mark (merge every affinity of the set,
   re-run the linear greedy-k kernel in place, roll back on failure),
   and the singleton fixpoint between set hits is the shared
   conservative worklist on the same context.  The persistent state is
   realized once, at the very end. *)

(* Try to merge every affinity of [set] on top of the current context;
   keep the merges only if all are possible and the merged graph stays
   greedy-k. *)
let try_set ~k spec set =
  let m = Spec.mark spec in
  let merged =
    List.for_all
      (fun (a : Problem.affinity) ->
        Spec.same_class spec a.u a.v || Spec.merge spec a.u a.v)
      set
  in
  if merged && Greedy_k.flat_is_greedy_k_colorable (Spec.flat spec) k then begin
    Spec.release spec m;
    true
  end
  else begin
    Spec.rollback spec m;
    false
  end

(* The search: run the singleton fixpoint, then probe sets of 2, 3, ...
   up to [max_set] open affinities by decreasing combined weight,
   restarting from singletons after each successful set.  Two
   structural savings over enumerating and rescanning everything (the
   test-only rescan oracle, which the differential suite holds this
   to):

   1. The singleton fixpoint is one persistent {!Conservative.Engine}
      over the search's speculation context instead of a fresh rescan
      per restart: set-probe merges flow through the attached cache, so
      each [singles] only re-examines what the last set merge touched.

   2. The size-2 enumeration is pruned by two sound impossibility
      arguments before any probe runs:

      - an affinity whose class roots interfere can never merge
        (interference between classes is permanent under merges), so
        any set containing one fails its probe;
      - if singleton [x] was brute-force rejected with residue witness
        R_x (a subgraph of G + merge(x) with all degrees >= k, still
        valid: same roots, members alive), then the pair {x, y} probes
        the graph G + x + y, where the y-contraction can only destroy
        the R_x k-core by killing or collapsing a member — impossible
        when both current roots of [y] lie outside
        R_x ∪ {roots of x} (the roots-of-x guard also covers the
        y-merge re-rooting x into a different contraction than the one
        witnessed).  Such pairs fail their probe; skipping them is
        exact.

      Surviving pairs are probed in the exact order of the full
      enumeration (combined weight descending, members ascending), so
      the first success — and hence the whole search trajectory — is
      identical.  Candidate partners for a witnessed [x] come from the
      cache movelists of R_x ∪ {roots of x}: work proportional to the
      affinities actually rooted near the witness, not to all open
      pairs.  Sizes >= 3 keep the generic enumeration. *)
let coalesce ?(max_set = 2) (p : Problem.t) =
  if max_set < 1 then invalid_arg "Set_coalescing.coalesce: max_set < 1";
  let spec = Spec.of_state (Coalescing.initial p.graph) in
  let engine =
    Conservative.Engine.create Conservative.Brute_force ~k:p.k spec
      p.affinities
  in
  let cache = Conservative.Engine.cache engine in
  let f = Spec.flat spec in
  let singles () = Conservative.Engine.run engine in
  let open_affinities () =
    List.filter
      (fun (a : Problem.affinity) -> not (Spec.same_class spec a.u a.v))
      p.affinities
  in
  (* Engine ids keyed by (u, v) — Problem.make deduplicates, so the
     pair is a key. *)
  let aid_of = Hashtbl.create 64 in
  Conservative.Engine.iter_open engine (fun aid (a : Problem.affinity) ->
      Hashtbl.replace aid_of (a.u, a.v) aid);
  let scope = Array.make (max 1 (Flat.capacity f)) false in
  let pair_candidates xs =
    let xs = Array.of_list xs in
    let m = Array.length xs in
    let roots =
      Array.map
        (fun (a : Problem.affinity) -> (Spec.repr spec a.u, Spec.repr spec a.v))
        xs
    in
    let interferes i =
      let iu, iv = roots.(i) in
      Flat.mem_edge f iu iv
    in
    (* Rejected-open = non-interfering; witnessed = rejected with a
       still-valid residue witness. *)
    let valid_witness i =
      let iu, iv = roots.(i) in
      match Hashtbl.find_opt aid_of (xs.(i).Problem.u, xs.(i).Problem.v) with
      | None -> None
      | Some aid -> (
          match Rule_cache.witness cache aid with
          | Some (wu, wv, members)
            when wu = iu && wv = iv
                 && Array.for_all (fun v -> Flat.is_live f v) members ->
              Some members
          | Some _ | None -> None)
    in
    let wit = Array.init m valid_witness in
    let in_scope_of i y =
      (* [None] witness constrains nothing. *)
      match wit.(i) with
      | None -> true
      | Some members ->
          let iu, iv = roots.(i) and yu, yv = roots.(y) in
          let hits r =
            r = iu || r = iv || Array.exists (fun v -> v = r) members
          in
          hits yu || hits yv
    in
    let pairs = Hashtbl.create 64 in
    let add i j =
      if i <> j then begin
        let i, j = if i < j then (i, j) else (j, i) in
        if
          (not (Hashtbl.mem pairs (i, j)))
          && (not (interferes i))
          && (not (interferes j))
          && in_scope_of i j && in_scope_of j i
        then Hashtbl.replace pairs (i, j) ()
      end
    in
    let pos_of_aid = Hashtbl.create 64 in
    Array.iteri
      (fun i (a : Problem.affinity) ->
        match Hashtbl.find_opt aid_of (a.u, a.v) with
        | Some aid -> Hashtbl.replace pos_of_aid aid i
        | None -> ())
      xs;
    let free = ref [] in
    for i = 0 to m - 1 do
      if not (interferes i) then
        match wit.(i) with
        | None -> free := i :: !free
        | Some members ->
            let iu, iv = roots.(i) in
            let consider r =
              if not scope.(r) then begin
                scope.(r) <- true;
                Rule_cache.iter_movelist cache r (fun aid ->
                    match Hashtbl.find_opt pos_of_aid aid with
                    | Some j -> add i j
                    | None -> ())
              end
            in
            consider iu;
            consider iv;
            Array.iter (fun v -> if Flat.is_live f v then consider v) members;
            scope.(iu) <- false;
            scope.(iv) <- false;
            Array.iter (fun v -> scope.(v) <- false) members
    done;
    (* Witness-less rejected affinities constrain nothing: they pair
       with every other rejected affinity. *)
    List.iter
      (fun i ->
        for j = 0 to m - 1 do
          if j <> i && not (interferes j) then add i j
        done)
      !free;
    Hashtbl.fold (fun (i, j) () acc -> [ xs.(i); xs.(j) ] :: acc) pairs []
    |> List.map (fun s ->
           ( List.fold_left (fun w (a : Problem.affinity) -> w + a.weight) 0 s,
             s ))
    |> List.sort (fun (w1, s1) (w2, s2) -> compare (w2, s1) (w1, s2))
    |> List.map snd
  in
  let rec grow size =
    if size <= max_set then
      let xs = open_affinities () in
      let candidates =
        if size = 2 then pair_candidates xs else subsets_by_weight size xs
      in
      let rec try_all = function
        | [] -> grow (size + 1)
        | set :: rest ->
            if try_set ~k:p.k spec set then begin
              singles ();
              grow 2
            end
            else try_all rest
      in
      try_all candidates
  in
  singles ();
  grow 2;
  Coalescing.solution_of_state p (Spec.commit spec)

let transitive_closure_affinities (p : Problem.t) =
  let by_vertex = Hashtbl.create 16 in
  List.iter
    (fun (a : Problem.affinity) ->
      List.iter
        (fun (x, y) ->
          let cur =
            match Hashtbl.find_opt by_vertex x with Some l -> l | None -> []
          in
          Hashtbl.replace by_vertex x ((y, a.weight) :: cur))
        [ (a.u, a.v); (a.v, a.u) ])
    p.affinities;
  let existing =
    List.fold_left
      (fun s (a : Problem.affinity) -> (a.u, a.v) :: s)
      [] p.affinities
  in
  let out = Hashtbl.create 16 in
  Hashtbl.iter
    (fun _a partners ->
      List.iter
        (fun (b, wb) ->
          List.iter
            (fun (c, wc) ->
              if b <> c then begin
                let key = (min b c, max b c) in
                if
                  (not (List.mem key existing))
                  && not (Graph.mem_edge p.graph b c)
                then
                  let w = min wb wc in
                  match Hashtbl.find_opt out key with
                  | Some w' when w' >= w -> ()
                  | Some _ | None -> Hashtbl.replace out key w
              end)
            partners)
        partners)
    by_vertex;
  Hashtbl.fold
    (fun (u, v) weight acc -> { Problem.u; v; weight } :: acc)
    out []
  |> List.sort compare
