type literal = int
type clause = literal list
type cnf = clause list

module ISet = Rc_graph.Graph.ISet
module IMap = Rc_graph.Graph.IMap

let vars cnf =
  List.fold_left
    (fun s c -> List.fold_left (fun s l -> ISet.add (abs l) s) s c)
    ISet.empty cnf
  |> ISet.elements

let eval cnf assign =
  List.for_all
    (fun c -> List.exists (fun l -> if l > 0 then assign l else not (assign (-l))) c)
    cnf

(* Apply a partial assignment: remove satisfied clauses, shrink others. *)
let simplify cnf v value =
  let sat_lit = if value then v else -v in
  let false_lit = -sat_lit in
  List.filter_map
    (fun c ->
      if List.mem sat_lit c then None
      else Some (List.filter (fun l -> l <> false_lit) c))
    cnf

let solve cnf =
  let rec dpll cnf assign =
    if cnf = [] then Some assign
    else if List.mem [] cnf then None
    else
      (* Unit propagation. *)
      match List.find_map (function [ l ] -> Some l | _ -> None) cnf with
      | Some l ->
          let v = abs l and value = l > 0 in
          dpll (simplify cnf v value) (IMap.add v value assign)
      | None -> (
          (* Pure literal elimination. *)
          let polarity = Hashtbl.create 16 in
          List.iter
            (List.iter (fun l ->
                 let v = abs l in
                 let pos, neg =
                   match Hashtbl.find_opt polarity v with
                   | Some pn -> pn
                   | None -> (false, false)
                 in
                 Hashtbl.replace polarity v
                   (pos || l > 0, neg || l < 0)))
            cnf;
          let pure =
            Hashtbl.fold
              (fun v (pos, neg) acc ->
                match acc with
                | Some _ -> acc
                | None -> if pos && not neg then Some (v, true)
                          else if neg && not pos then Some (v, false)
                          else None)
              polarity None
          in
          match pure with
          | Some (v, value) -> dpll (simplify cnf v value) (IMap.add v value assign)
          | None -> (
              (* Branch on the first variable of the first clause.  An
                 empty first clause is unsatisfiable, and no clause at
                 all is satisfied (both are caught above; the arms keep
                 the match total). *)
              match cnf with
              | (l :: _) :: _ -> (
                  let v = abs l in
                  match dpll (simplify cnf v true) (IMap.add v true assign) with
                  | Some _ as ok -> ok
                  | None -> dpll (simplify cnf v false) (IMap.add v false assign))
              | [] :: _ -> None
              | [] -> Some assign))
  in
  match dpll cnf IMap.empty with
  | None -> None
  | Some assign ->
      Some (fun v -> match IMap.find_opt v assign with Some b -> b | None -> false)

let random_3sat rng ~vars ~clauses =
  if vars < 3 then invalid_arg "Sat.random_3sat: need at least 3 variables";
  List.init clauses (fun _ ->
      let rec pick3 acc =
        if List.length acc = 3 then acc
        else
          let v = 1 + Random.State.int rng vars in
          if List.mem v acc then pick3 acc else pick3 (v :: acc)
      in
      List.map
        (fun v -> if Random.State.bool rng then v else -v)
        (pick3 []))

let to_4sat cnf =
  let x0 = 1 + List.fold_left (fun m v -> max m v) 0 (vars cnf) in
  (x0, List.map (fun c -> x0 :: c) cnf)
