module Graph = Rc_graph.Graph
module Greedy_k = Rc_graph.Greedy_k

exception Stopped = Cancel.Stopped

type outcome = {
  winner : string;
  racers : string list;
  losers_cancelled : int;
  losers_finished : int;
  cancel_latency_ns : int;
}

(* Provenance: the calling domain remembers its last race; a global
   monitor (installed once, by Sanitize's module init) sees every
   race. *)
let last_key : outcome option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let last_outcome () = Domain.DLS.get last_key
let clear_last_outcome () = Domain.DLS.set last_key None
let monitor : (outcome -> unit) option ref = ref None
let set_monitor f = monitor := f

let race (type a) ?(stop = fun () -> false) ~(certify : a -> bool)
    (racers : (string * ((unit -> bool) -> a)) list) : a * outcome =
  if racers = [] then invalid_arg "Portfolio.race: no racers";
  let winner : (string * a) option Atomic.t = Atomic.make None in
  let win_ns = Atomic.make 0L in
  let cancelled = Atomic.make 0 in
  let finished = Atomic.make 0 in
  let worst_latency = Atomic.make 0 in
  let first_error : exn option Atomic.t = Atomic.make None in
  let my_stop () = stop () || Atomic.get winner <> None in
  let run (name, f) =
    match f my_stop with
    | answer ->
        let ok = try certify answer with _ -> false in
        if ok then begin
          (* Stamp before publishing so cancelled losers never read an
             unset win time; ties between simultaneous certifiers are
             harmless (first stamp sticks). *)
          ignore (Atomic.compare_and_set win_ns 0L (Mclock.now_ns ()));
          if not (Atomic.compare_and_set winner None (Some (name, answer)))
          then ignore (Atomic.fetch_and_add finished 1)
        end
        else ignore (Atomic.fetch_and_add finished 1)
    | exception Stopped ->
        if Atomic.get winner <> None then begin
          (* Cancelled by the winner: record how long the unwind took. *)
          let lat =
            max 0
              (Int64.to_int (Int64.sub (Mclock.now_ns ()) (Atomic.get win_ns)))
          in
          ignore (Atomic.fetch_and_add cancelled 1);
          let rec bump () =
            let cur = Atomic.get worst_latency in
            if lat > cur && not (Atomic.compare_and_set worst_latency cur lat)
            then bump ()
          in
          bump ()
        end
        (* else: the outer probe fired; nothing to record. *)
    | exception e ->
        ignore (Atomic.compare_and_set first_error None (Some e));
        ignore (Atomic.fetch_and_add finished 1)
  in
  let domains =
    List.map (fun racer -> Domain.spawn (fun () -> run racer)) (List.tl racers)
  in
  run (List.hd racers);
  List.iter Domain.join domains;
  match Atomic.get winner with
  | Some (name, answer) ->
      let o =
        {
          winner = name;
          racers = List.map fst racers;
          losers_cancelled = Atomic.get cancelled;
          losers_finished = Atomic.get finished;
          cancel_latency_ns = Atomic.get worst_latency;
        }
      in
      Domain.DLS.set last_key (Some o);
      (match !monitor with Some f -> f o | None -> ());
      (answer, o)
  | None ->
      if stop () then raise Stopped
      else (
        match Atomic.get first_error with
        | Some e -> raise e
        | None ->
            failwith "Portfolio.race: no racer produced a certified answer")

(* ------------------------------------------------------------------ *)
(* The exact:race backend.                                             *)
(* ------------------------------------------------------------------ *)

(* Connected components of the interference ∪ affinity union graph.
   Conservative-coalescing optima decompose exactly across them:
   merges only follow affinities, so every merged class stays inside
   one union component, and greedy-k-colorability is per merged-graph
   component (which refines union components). *)
let union_components (p : Problem.t) =
  let union_graph =
    List.fold_left
      (fun g (a : Problem.affinity) -> Graph.add_edge g a.u a.v)
      p.graph p.affinities
  in
  Graph.connected_components union_graph

(* One pass each: every vertex gets its component's index, affinities
   are bucketed by the component of their first endpoint (input order
   kept), and each part's graph is induced from its own vertices. *)
let split_parts (p : Problem.t) =
  let comps = Array.of_list (union_components p) in
  let comp_of = Hashtbl.create (Graph.num_vertices p.graph) in
  Array.iteri
    (fun i comp -> Graph.ISet.iter (fun v -> Hashtbl.replace comp_of v i) comp)
    comps;
  let buckets = Array.make (Array.length comps) [] in
  List.iter
    (fun (a : Problem.affinity) ->
      let i = Hashtbl.find comp_of a.u in
      buckets.(i) <- ((a.u, a.v), a.weight) :: buckets.(i))
    (List.rev p.affinities);
  Array.to_list comps
  |> List.mapi (fun i comp -> (comp, buckets.(i)))
  |> List.filter_map (fun (comp, affinities) ->
         if affinities = [] then None
         else
           Some
             (Problem.make ~graph:(Graph.induced p.graph comp) ~affinities
                ~k:p.k))

(* Recombine component solutions by replaying their coalesced pairs on
   the original graph.  Union components are disjoint, so every merge
   applies; one that does not means the parts overlapped. *)
let combine (p : Problem.t) (part_solutions : Coalescing.solution list) =
  let st =
    List.fold_left
      (fun st (sol : Coalescing.solution) ->
        List.fold_left
          (fun st (a : Problem.affinity) ->
            if Coalescing.same_class st a.u a.v then st
            else
              match Coalescing.merge st a.u a.v with
              | Some st' -> st'
              | None ->
                  invalid_arg
                    (Printf.sprintf
                       "Portfolio.combine: coalesced affinity (%d, %d) \
                        conflicts with another part's merges (union \
                        components overlap)"
                       a.u a.v))
          st sol.Coalescing.coalesced)
      (Coalescing.initial p.graph)
      part_solutions
  in
  Coalescing.solution_of_state p st

let conservative_race ?(stop = fun () -> false) ?prime ?(reach = 20) ?certify
    (p : Problem.t) =
  ignore prime;
  if not (Greedy_k.is_greedy_k_colorable p.graph p.k) then
    invalid_arg
      "Portfolio.conservative_race: input graph is not greedy-k-colorable";
  let parts = split_parts p in
  let max_aff =
    List.fold_left
      (fun acc (part : Problem.t) -> max acc (List.length part.affinities))
      0 parts
  in
  if max_aff > reach then
    invalid_arg
      (Printf.sprintf
         "exact:race: largest union component carries %d affinities (reach \
          %d); the portfolio refuses monolithic instances"
         max_aff reach);
  match parts with
  | [] -> Coalescing.solution_of_state p (Coalescing.initial p.graph)
  | _ ->
      let certify =
        match certify with Some f -> f | None -> Coalescing.is_conservative p
      in
      let solve_all backend stop' =
        combine p (List.map (fun part -> backend ~stop:stop' part) parts)
      in
      let answer, _outcome =
        race ~stop ~certify
          [
            ("bb", solve_all (fun ~stop part -> Exact.conservative ~stop part));
            ("pb", solve_all (fun ~stop part -> Pb.conservative ~stop part));
          ]
      in
      answer
