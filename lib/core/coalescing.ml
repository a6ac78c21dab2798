module Graph = Rc_graph.Graph
module IMap = Graph.IMap

(* A merged class of two or more original vertices.  [members] is in no
   particular order (a merge prepends the absorbed class's list onto the
   survivor's); readers sort. *)
type cls = {
  rep : Graph.vertex; (* the class's vertex in the merged graph *)
  size : int;
  members : Graph.vertex list;
}

type state = {
  graph : Graph.t;
  cid : int IMap.t;
      (* original vertex -> class id.  A class id is one of the class's
         members, so a singleton's id is the vertex itself. *)
  cls : cls IMap.t; (* class id -> class, classes of two or more only *)
}

let initial g =
  {
    graph = g;
    cid =
      List.fold_left (fun m v -> IMap.add v v m) IMap.empty (Graph.vertices g);
    cls = IMap.empty;
  }

let class_id st v =
  match IMap.find v st.cid with
  | c -> c
  | exception Not_found ->
      invalid_arg (Printf.sprintf "Coalescing.find: unknown vertex %d" v)

(* The class with id [c], singletons included. *)
let class_of_id st c =
  match IMap.find_opt c st.cls with
  | Some k -> k
  | None -> { rep = c; size = 1; members = [ c ] }

let find st v =
  let c = class_id st v in
  match IMap.find_opt c st.cls with Some k -> k.rep | None -> c

let graph st = st.graph

let same_class st u v = class_id st u = class_id st v

(* Union by size: the smaller class is relabelled and its member list
   prepended onto the larger one's, so a merge costs the graph surgery
   plus O(smaller class * log n).  The survivor is [u]'s representative
   whichever class keeps its id. *)
let merge st u v =
  let cu = class_id st u and cv = class_id st v in
  if cu = cv then None
  else
    let ku = class_of_id st cu and kv = class_of_id st cv in
    if Graph.mem_edge st.graph ku.rep kv.rep then None
    else
      let keep, big, gone, small =
        if kv.size > ku.size then (cv, kv, cu, ku) else (cu, ku, cv, kv)
      in
      let merged =
        {
          rep = ku.rep;
          size = ku.size + kv.size;
          members = List.rev_append small.members big.members;
        }
      in
      Some
        {
          graph = Graph.merge st.graph ku.rep kv.rep;
          cid = List.fold_left (fun m w -> IMap.add w keep m) st.cid small.members;
          cls = IMap.add keep merged (IMap.remove gone st.cls);
        }

let classes st =
  IMap.fold
    (fun v c acc ->
      match IMap.find_opt c st.cls with
      | None -> (v, [ v ]) :: acc
      | Some k when k.rep = v -> (v, List.sort Int.compare k.members) :: acc
      | Some _ -> acc)
    st.cid []
  |> List.rev

let class_of st v =
  List.sort Int.compare (class_of_id st (class_id st v)).members

let of_classes g cls =
  List.fold_left
    (fun st (rep, members) ->
      List.fold_left
        (fun st v ->
          if v = rep then st
          else
            match merge st rep v with
            | Some st -> st
            | None ->
                invalid_arg
                  (Printf.sprintf
                     "Coalescing.of_classes: %d cannot join %d's class (the \
                      classes overlap or interfere)"
                     v rep))
        st members)
    (initial g) cls

(* ------------------------------------------------------------------ *)
(* Speculation: the shared flat merge-search context                    *)
(* ------------------------------------------------------------------ *)

module Speculation = struct
  module Flat = Rc_graph.Flat

  (* Rebind the state-level operations the submodule shadows. *)
  let state_find = find
  let state_merge = merge

  type spec = {
    base : state;
    f : Flat.t;
    parent : int array;
        (* Union-find over flat indices for the merges performed on [f].
           Unions always attach the surviving flat vertex as the root
           ([parent.(iv) <- iu] exactly when [Flat.merge f iu iv] ran),
           and there is no path compression: a rollback then only has to
           re-root the [iv] of each undone merge, newest first. *)
    mutable merges : (int * int) array; (* (iu, iv) pairs, oldest first *)
    mutable mlen : int;
    mutable cache : Rule_cache.t option;
        (* Attached rule cache, if any: merges feed it their
           invalidation sets (before the rows change) and marks carry a
           cache mark, so its counters roll back in lockstep with the
           flat graph. *)
  }

  type mark = {
    fcp : Flat.checkpoint;
    mmark : int;
    cmark : Rule_cache.mark option;
  }

  (* Speculation events for the kernel sanitizer (Rc_check.Sanitize).
     Same contract as Flat.set_monitor: a domain-local hook, [None] in
     release builds, fired after the event completes, once per merge/
     rollback/release/commit — never inside an edge loop.  Domain-local
     (not a global ref) so sweep-engine worker domains can each run a
     sanitizer without racing on shared audit state. *)
  type event = Merged | Rolled_back | Released | Committed of state

  let monitor : (event -> spec -> unit) option Domain.DLS.key =
    Domain.DLS.new_key (fun () -> None)

  let set_monitor m = Domain.DLS.set monitor m

  let notify ev s =
    match Domain.DLS.get monitor with None -> () | Some f -> f ev s

  let of_state st =
    let f = Flat.of_graph st.graph in
    {
      base = st;
      f;
      parent = Array.init (Flat.capacity f) Fun.id;
      merges = [||];
      mlen = 0;
      cache = None;
    }

  let flat s = s.f
  let base s = s.base

  let attach_cache s c =
    if s.cache <> None then invalid_arg "Speculation.attach_cache: already attached";
    if Flat.checkpoint_depth s.f <> 0 then
      invalid_arg "Speculation.attach_cache: checkpoints open";
    s.cache <- Some c

  let cache s = s.cache

  let rec root s i = if s.parent.(i) = i then i else root s s.parent.(i)

  let repr s v = root s (Flat.index s.f (state_find s.base v))
  let root_index s i = root s i
  let label s i = Flat.label s.f i
  let same_class s u v = repr s u = repr s v

  let push_merge s iu iv =
    if s.mlen = Array.length s.merges then begin
      let b = Array.make (max 16 (2 * s.mlen)) (iu, iv) in
      Array.blit s.merges 0 b 0 s.mlen;
      s.merges <- b
    end;
    s.merges.(s.mlen) <- (iu, iv);
    s.mlen <- s.mlen + 1

  let merge_roots s iu iv =
    (* The cache reads the rows of both roots, so it goes first. *)
    (match s.cache with Some c -> Rule_cache.pre_merge c iu iv | None -> ());
    Flat.merge s.f iu iv;
    s.parent.(iv) <- iu;
    push_merge s iu iv;
    notify Merged s

  let merge s u v =
    let iu = repr s u and iv = repr s v in
    if iu = iv || Flat.mem_edge s.f iu iv then false
    else begin
      merge_roots s iu iv;
      true
    end

  let mark s =
    {
      fcp = Flat.checkpoint s.f;
      mmark = s.mlen;
      cmark = (match s.cache with Some c -> Some (Rule_cache.mark c) | None -> None);
    }

  let rollback s m =
    (match (s.cache, m.cmark) with
    | Some c, Some cm -> Rule_cache.rollback c cm
    | _ -> ());
    Flat.rollback s.f m.fcp;
    while s.mlen > m.mmark do
      s.mlen <- s.mlen - 1;
      let _, iv = s.merges.(s.mlen) in
      s.parent.(iv) <- iv
    done;
    notify Rolled_back s

  let release s m =
    (match (s.cache, m.cmark) with
    | Some c, Some cm -> Rule_cache.release c cm
    | _ -> ());
    Flat.release s.f m.fcp;
    notify Released s

  let merge_log s =
    List.init s.mlen (fun i ->
        let iu, iv = s.merges.(i) in
        (Flat.label s.f iu, Flat.label s.f iv))

  (* Replay a merge log onto a persistent state.  A log taken from a
     speculation applies to that speculation's base by construction; an
     entry that does not apply means the log and the state disagree. *)
  let replay st log =
    List.fold_left
      (fun st (u, v) ->
        match state_merge st u v with
        | Some st' -> st'
        | None ->
            invalid_arg
              (Printf.sprintf
                 "Coalescing.Speculation.replay: merge (%d, %d) does not apply \
                  to its base (same class or interfering)"
                 u v))
      st log

  (* Commit without replay: the flat mirror already IS the merged
     graph, and the union-find composed with the base classes gives the
     new ones — one pass over the base's vertices, whatever the number
     of merges.  The new class ids are the new representatives.  The
     sanitizer's [Committed] audit replays the log independently and
     compares, so the equivalence stays machine-checked. *)
  let commit s =
    let members = Array.make (Flat.capacity s.f) [] in
    let cid =
      IMap.mapi
        (fun v c ->
          let r =
            match IMap.find_opt c s.base.cls with Some k -> k.rep | None -> c
          in
          let i = root s (Flat.index s.f r) in
          members.(i) <- v :: members.(i);
          Flat.label s.f i)
        s.base.cid
    in
    let cls = ref IMap.empty in
    Array.iteri
      (fun i ms ->
        match ms with
        | _ :: _ :: _ ->
            let rep = Flat.label s.f i in
            cls := IMap.add rep { rep; size = List.length ms; members = ms } !cls
        | [] | [ _ ] -> ())
      members;
    let st = { graph = Flat.to_graph s.f; cid; cls = !cls } in
    notify (Committed st) s;
    st

  (* Full structural audit of the speculative context: union-find shape,
     merge-log/parent/flat agreement.  O(capacity); checked builds and
     tests only. *)
  let self_check s =
    let fail fmt =
      Printf.ksprintf (fun m -> failwith ("Speculation.self_check: " ^ m)) fmt
    in
    let cap = Flat.capacity s.f in
    if Array.length s.parent <> cap then
      fail "parent array length %d, capacity %d" (Array.length s.parent) cap;
    if s.mlen < 0 || s.mlen > Array.length s.merges then
      fail "merge-log length %d outside its buffer" s.mlen;
    (* Parent acyclicity: color 0 = unvisited, 1 = on the current walk,
       2 = proven rooted. *)
    let color = Array.make cap 0 in
    for i = 0 to cap - 1 do
      if color.(i) = 0 then begin
        let path = ref [] in
        let j = ref i in
        while color.(!j) = 0 do
          color.(!j) <- 1;
          path := !j :: !path;
          let p = s.parent.(!j) in
          if p < 0 || p >= cap then
            fail "parent %d of index %d out of range" p !j;
          if p = !j then color.(!j) <- 2 else j := p
        done;
        if color.(!j) = 1 then fail "union-find cycle through index %d" !j;
        List.iter (fun v -> color.(v) <- 2) !path
      end
    done;
    (* Each live merge-log entry (iu, iv): the link is still in place and
       iv is gone from the flat mirror; each iv is merged away once. *)
    let merged_away = Array.make cap false in
    for idx = 0 to s.mlen - 1 do
      let iu, iv = s.merges.(idx) in
      if iu < 0 || iu >= cap || iv < 0 || iv >= cap then
        fail "merge-log entry %d = (%d, %d) out of range" idx iu iv;
      if s.parent.(iv) <> iu then
        fail "merge-log entry %d: parent of %d is %d, expected %d" idx iv
          s.parent.(iv) iu;
      if Flat.is_live s.f iv then
        fail "merged-away index %d still live in the flat mirror" iv;
      if merged_away.(iv) then fail "index %d merged away twice" iv;
      merged_away.(iv) <- true
    done;
    (* Conversely, an index may only point away from itself if a live
       log entry re-rooted it (rollback restores self-parenting). *)
    for i = 0 to cap - 1 do
      if (not merged_away.(i)) && s.parent.(i) <> i then
        fail "index %d re-rooted to %d without a live merge-log entry" i
          s.parent.(i)
    done
end

type solution = {
  state : state;
  coalesced : Problem.affinity list;
  gave_up : Problem.affinity list;
}

let solution_of_state (p : Problem.t) st =
  let coalesced, gave_up =
    List.partition
      (fun (a : Problem.affinity) -> same_class st a.u a.v)
      p.affinities
  in
  { state = st; coalesced; gave_up }

let coalesced_weight s =
  List.fold_left (fun acc (a : Problem.affinity) -> acc + a.weight) 0 s.coalesced

let remaining_weight s =
  List.fold_left (fun acc (a : Problem.affinity) -> acc + a.weight) 0 s.gave_up

let check (p : Problem.t) s =
  let st = s.state in
  let ( let* ) r k = match r with Ok () -> k () | Error _ as e -> e in
  (* Every original vertex tracked. *)
  let* () =
    if List.for_all (fun v -> IMap.mem v st.cid) (Graph.vertices p.graph)
    then Ok ()
    else Error "merge state does not cover the problem graph"
  in
  (* No interference inside a class: every original edge must separate
     classes. *)
  let* () =
    Graph.fold_edges
      (fun u v acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if find st u = find st v then
              Error (Printf.sprintf "interfering vertices %d and %d coalesced" u v)
            else Ok ())
      p.graph (Ok ())
  in
  (* The coalesced graph must contain the projected edges. *)
  let* () =
    Graph.fold_edges
      (fun u v acc ->
        match acc with
        | Error _ -> acc
        | Ok () ->
            if Graph.mem_edge st.graph (find st u) (find st v) then Ok ()
            else Error "coalesced graph is missing a projected interference")
      p.graph (Ok ())
  in
  (* Affinity classification must match the state. *)
  let classified_ok (a : Problem.affinity) expected =
    same_class st a.u a.v = expected
  in
  if
    List.for_all (fun a -> classified_ok a true) s.coalesced
    && List.for_all (fun a -> classified_ok a false) s.gave_up
    && List.length s.coalesced + List.length s.gave_up
       = List.length p.affinities
  then Ok ()
  else Error "solution affinity classification inconsistent"

let is_conservative (p : Problem.t) s =
  Rc_graph.Greedy_k.is_greedy_k_colorable s.state.graph p.k
