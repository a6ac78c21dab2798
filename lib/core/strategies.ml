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
      | Some b -> Ok (Exact_backend b)
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

type dispatch = Direct | Static_profile

type config = { check : check_level; seed : int; dispatch : dispatch }

let default_config = { check = No_check; seed = 0; dispatch = Direct }

(* ------------------------------------------------------------------ *)
(* The solver-backend registry.  It replaces the old
   [set_static_dispatcher] option ref: anything that extends the solve
   path — a second exact solver, a portfolio, the Rc_analysis profile
   router — registers a named entry here, and every front end (solve,
   sweep, serve) resolves backends through the same table.             *)
(* ------------------------------------------------------------------ *)

module Backend = struct
  type caps = { exact : bool; router : bool }

  type nonrec backend = {
    bname : string;
    describe : string;
    caps : caps;
    solve :
      ?stop:(unit -> bool) ->
      ?prime:Coalescing.solution ->
      config ->
      t ->
      Problem.t ->
      Coalescing.solution;
  }

  (* An atomic assoc list: registrations happen at module init or
     explicit install time, lookups happen concurrently on every
     worker domain — readers take a snapshot, writers CAS. *)
  let table : backend list Atomic.t = Atomic.make []

  exception Unknown_backend of { requested : string; known : string list }

  let () =
    Printexc.register_printer (function
      | Unknown_backend { requested; known } ->
          Some
            (Printf.sprintf "unknown solver backend %S (known: %s)" requested
               (String.concat ", " known))
      | _ -> None)

  let known () =
    List.sort compare (List.map (fun b -> b.bname) (Atomic.get table))

  let rec register b =
    let cur = Atomic.get table in
    let without = List.filter (fun b' -> b'.bname <> b.bname) cur in
    if not (Atomic.compare_and_set table cur (b :: without)) then register b

  let find requested =
    List.find_opt (fun b -> b.bname = requested) (Atomic.get table)

  let find_exn requested =
    match find requested with
    | Some b -> b
    | None -> raise (Unknown_backend { requested; known = known () })
end

(* The built-in exact backends.  Registered at module initialization —
   not from the backends' own modules, which nothing would force the
   linker to keep — so every program that can spell [exact:NAME] has
   the builtins available. *)
let () =
  Backend.register
    {
      Backend.bname = "bb";
      describe = "branch-and-bound on the speculation context (the default)";
      caps = { Backend.exact = true; router = false };
      solve = (fun ?stop ?prime _cfg _strategy p -> Exact.conservative ?stop ?prime p);
    };
  Backend.register
    {
      Backend.bname = "pb";
      describe = "pseudo-boolean 0-1 core (CDCL, lazy colorability no-goods)";
      caps = { Backend.exact = true; router = false };
      solve = (fun ?stop ?prime _cfg _strategy p -> Pb.conservative ?stop ?prime p);
    };
  Backend.register
    {
      Backend.bname = "race";
      describe =
        "portfolio: bb vs pb per union component, first certified answer wins";
      caps = { Backend.exact = true; router = false };
      solve =
        (fun ?stop ?prime _cfg _strategy p ->
          Portfolio.conservative_race ?stop ?prime p);
    }

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

(* Resolve a named exact backend and run it.  The ambient Cancel probe
   rides along so pool aborts reach long exact searches. *)
let run_backend cfg strategy bname p =
  let bk = Backend.find_exn bname in
  if not bk.Backend.caps.exact then
    invalid_arg
      (Printf.sprintf
         "Strategies.run_cfg: backend %S is a router, not an exact solver \
          (known exact backends: %s)"
         bname
         (String.concat ", "
            (List.filter
               (fun n -> (Backend.find_exn n).Backend.caps.exact)
               (Backend.known ()))));
  bk.Backend.solve ~stop:(Cancel.probe ()) cfg strategy p

let run_cfg cfg strategy (p : Problem.t) =
  (match cfg.check with
  | No_check -> ()
  | Validate_input | Assert_conservative -> validate_input p);
  let sol =
    match cfg.dispatch with
    | Static_profile -> (
        match Backend.find "static" with
        | Some bk ->
            bk.Backend.solve ~stop:(Cancel.probe ())
              { cfg with dispatch = Direct }
              strategy p
        | None ->
            invalid_arg
              "Strategies.run_cfg: dispatch = Static_profile but the \
               \"static\" router backend is not registered (call \
               Rc_analysis.Dispatch.install first)")
    | Direct -> (
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
        | Exact_conservative -> run_backend cfg strategy "bb" p
        | Exact_backend b -> run_backend cfg strategy b p)
  in
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

let evaluate_cfg cfg strategy p =
  Portfolio.clear_last_outcome ();
  let t0 = Mclock.now_ns () in
  let sol = run_cfg cfg strategy p in
  let time_s = Mclock.elapsed_s t0 in
  {
    strategy = name strategy;
    coalesced_weight = Coalescing.coalesced_weight sol;
    total_weight = Problem.total_weight p;
    coalesced_count = List.length sol.coalesced;
    affinity_count = List.length p.affinities;
    conservative = Coalescing.is_conservative p sol;
    time_s;
    provenance = Option.map describe_outcome (Portfolio.last_outcome ());
  }

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
