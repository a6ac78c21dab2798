type t =
  | Aggressive
  | Conservative of Conservative.rule
  | Irc of Irc.rule
  | Optimistic
  | Chordal_incremental
  | Set_conservative of int
  | Exact_conservative
  | Exact_backend of string

let name = function
  | Aggressive -> "aggressive"
  | Conservative r -> "conservative/" ^ Conservative.rule_name r
  | Irc Irc.Briggs_only -> "irc/briggs"
  | Irc Irc.George_only -> "irc/george"
  | Irc Irc.Briggs_and_george -> "irc/briggs+george"
  | Optimistic -> "optimistic"
  | Chordal_incremental -> "chordal-incremental"
  | Set_conservative n -> Printf.sprintf "set-conservative/%d" n
  | Exact_conservative -> "exact"
  | Exact_backend b -> "exact:" ^ b

(* The exact backends, a closed set: [exact:NAME] spells one of these
   and nothing else. *)
let exact_backends = [ "bb"; "pb"; "race" ]

(* One token per strategy, shared by every front end (the CLI's
   --strategy flag, sweep filters, test drivers) so the spelling lives
   in exactly one place.  Accepts both the short CLI tokens and the
   canonical [name] forms. *)
let of_string s =
  match s with
  | "aggressive" -> Ok Aggressive
  | "briggs" | "conservative/briggs" -> Ok (Conservative Conservative.Briggs)
  | "george" | "conservative/george" -> Ok (Conservative Conservative.George)
  | "briggs-george" | "conservative/briggs+george" ->
      Ok (Conservative Conservative.Briggs_george)
  | "briggs-george-ext" | "conservative/briggs+george-ext" ->
      Ok (Conservative Conservative.Briggs_george_extended)
  | "brute-force" | "conservative/brute-force" ->
      Ok (Conservative Conservative.Brute_force)
  | "irc" | "irc/briggs+george" -> Ok (Irc Irc.Briggs_and_george)
  | "irc-briggs" | "irc/briggs" -> Ok (Irc Irc.Briggs_only)
  | "irc-george" | "irc/george" -> Ok (Irc Irc.George_only)
  | "optimistic" -> Ok Optimistic
  | "chordal" | "chordal-incremental" -> Ok Chordal_incremental
  | "exact" -> Ok Exact_conservative
  | s -> (
      (* "setN" / "set-conservative/N" / "exact:BACKEND" *)
      let suffix_of prefix =
        let pl = String.length prefix and sl = String.length s in
        if sl > pl && String.sub s 0 pl = prefix then
          Some (String.sub s pl (sl - pl))
        else None
      in
      let set_of prefix = Option.bind (suffix_of prefix) int_of_string_opt in
      match suffix_of "exact:" with
      | Some b when List.mem b exact_backends -> Ok (Exact_backend b)
      | Some _ ->
          Error
            (Printf.sprintf "unknown strategy %S (exact backends: %s)" s
               (String.concat ", " exact_backends))
      | None -> (
          match (set_of "set", set_of "set-conservative/") with
          | Some n, _ | None, Some n when n >= 1 -> Ok (Set_conservative n)
          | _ -> Error (Printf.sprintf "unknown strategy %S" s)))

let all_heuristics =
  [
    Aggressive;
    Conservative Conservative.Briggs;
    Conservative Conservative.George;
    Conservative Conservative.Briggs_george;
    Conservative Conservative.Briggs_george_extended;
    Conservative Conservative.Brute_force;
    Irc Irc.Briggs_only;
    Irc Irc.Briggs_and_george;
    Optimistic;
    Chordal_incremental;
    Set_conservative 2;
  ]

(* ------------------------------------------------------------------ *)
(* Unified run configuration                                           *)
(* ------------------------------------------------------------------ *)

type check_level = No_check | Validate_input | Assert_conservative

type config = { check : check_level; seed : int }

let default_config = { check = No_check; seed = 0 }

let solve_exact ?stop ?prime name p =
  match name with
  | "bb" -> Exact.conservative ?stop ?prime p
  | "pb" -> Pb.conservative ?stop ?prime p
  | "race" -> Portfolio.conservative_race ?stop ?prime p
  | _ ->
      invalid_arg
        (Printf.sprintf "Strategies.solve_exact: unknown exact backend %S \
                         (known: %s)"
           name
           (String.concat ", " exact_backends))

let run_chordal_incremental (p : Problem.t) =
  if not (Rc_graph.Chordal.is_chordal p.graph) then
    Conservative.coalesce Conservative.Brute_force p
  else begin
    let by_weight =
      List.sort
        (fun (a : Problem.affinity) b ->
          compare (b.weight, a.u, a.v) (a.weight, b.u, b.v))
        p.affinities
    in
    let st =
      List.fold_left
        (fun st a ->
          if Coalescing.same_class st a.Problem.u a.v then st
          else
            match Chordal_coalescing.coalesce_incrementally p st a with
            | Some st' -> st'
            | None -> st)
        (Coalescing.initial p.graph)
        by_weight
    in
    Coalescing.solution_of_state p st
  end

let validate_input p =
  match Problem.validate p with
  | Ok () -> ()
  | Error errs ->
      invalid_arg
        (Printf.sprintf "Strategies.run_cfg: invalid problem: %s"
           (String.concat "; " (List.map Problem.error_to_string errs)))

(* Which strategies promise a conservative (greedy-k-colorable) result.
   Aggressive explicitly does not; everything else does. *)
let claims_conservative = function Aggressive -> false | _ -> true

let checked cfg strategy p solve =
  (match cfg.check with
  | No_check -> ()
  | Validate_input | Assert_conservative -> validate_input p);
  let sol = solve () in
  (match cfg.check with
  | Assert_conservative
    when claims_conservative strategy && not (Coalescing.is_conservative p sol)
    ->
      failwith
        (Printf.sprintf
           "Strategies.run_cfg: %s returned a non-conservative solution"
           (name strategy))
  | _ -> ());
  sol

(* The ambient Cancel probe rides along so pool aborts reach long exact
   searches. *)
let run_cfg cfg strategy (p : Problem.t) =
  checked cfg strategy p (fun () ->
      match strategy with
      | Aggressive -> Aggressive.coalesce p
      | Conservative r -> Conservative.coalesce r p
      | Irc r -> (Irc.allocate ~rule:r p).solution
      | Optimistic -> Optimistic.coalesce p
      | Chordal_incremental -> run_chordal_incremental p
      | Set_conservative n ->
          (* [Invalid_argument] for n < 1, which [of_string] never
             yields. *)
          Set_coalescing.coalesce ~max_set:n p
      | Exact_conservative -> solve_exact ~stop:(Cancel.probe ()) "bb" p
      | Exact_backend b -> solve_exact ~stop:(Cancel.probe ()) b p)

let run strategy p = run_cfg default_config strategy p

type report = {
  strategy : string;
  coalesced_weight : int;
  total_weight : int;
  coalesced_count : int;
  affinity_count : int;
  conservative : bool;
  time_s : float;
  provenance : string option;
}

let describe_outcome (o : Portfolio.outcome) =
  Printf.sprintf "race won by %s (%d cancelled in %.3fms, %d finished)"
    o.Portfolio.winner o.losers_cancelled
    (float_of_int o.cancel_latency_ns /. 1e6)
    o.losers_finished

let report_of_solution strategy p (sol : Coalescing.solution) =
  {
    strategy = name strategy;
    coalesced_weight = Coalescing.coalesced_weight sol;
    total_weight = Problem.total_weight p;
    coalesced_count = List.length sol.coalesced;
    affinity_count = List.length p.affinities;
    conservative = Coalescing.is_conservative p sol;
    time_s = 0.;
    provenance = None;
  }

let evaluate_with solve strategy p =
  Portfolio.clear_last_outcome ();
  let t0 = Mclock.now_ns () in
  let sol = solve strategy p in
  let time_s = Mclock.elapsed_s t0 in
  {
    (report_of_solution strategy p sol) with
    time_s;
    provenance = Option.map describe_outcome (Portfolio.last_outcome ());
  }

let evaluate_cfg cfg = evaluate_with (run_cfg cfg)

let evaluate strategy p = evaluate_cfg default_config strategy p

let pp_report_canonical ppf r =
  Format.fprintf ppf "%-28s %6d/%-6d weight  %4d/%-4d moves  %s" r.strategy
    r.coalesced_weight r.total_weight r.coalesced_count r.affinity_count
    (if r.conservative then "conservative" else "NOT-k-colorable")

(* Provenance renders only here, never in the canonical form: the
   cached/differential byte-identity contract is on the canonical
   rendering, and which racer happened to win is not deterministic. *)
let pp_report ppf r =
  Format.fprintf ppf "%a  %8.4fs" pp_report_canonical r r.time_s;
  match r.provenance with
  | Some why -> Format.fprintf ppf "  [%s]" why
  | None -> ()
