module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Strategies = Rc_core.Strategies
module Conservative = Rc_core.Conservative

type mode = Direct | Static_profile

(* The polynomial path the profile admits, or the named strategy. *)
let structural cfg strategy profile p =
  match Profile.interval_order profile with
  | Some order -> Interval_walk.coalesce ~order p
  | None ->
      if profile.Profile.chordal then
        Strategies.run_cfg cfg Strategies.Chordal_incremental p
      else Strategies.run_cfg cfg strategy p

(* A cheap conservative incumbent priming the exact search on one part. *)
let incumbent cfg (part : Problem.t) =
  let profile = Profile.analyze part in
  let sol =
    structural cfg
      (Strategies.Conservative Conservative.Briggs_george_extended)
      profile part
  in
  if Coalescing.is_conservative part sol then Some sol else None

let exact_with_presolve cfg strategy (p : Problem.t) =
  (* [exact:NAME] names the backend inline, plain [exact] means "bb". *)
  let backend =
    match strategy with Strategies.Exact_backend b -> b | _ -> "bb"
  in
  let plan = Presolve.run ~level:Presolve.Full p in
  let sols =
    List.map
      (fun part ->
        Strategies.solve_exact
          ~stop:(Rc_core.Cancel.probe ())
          ?prime:(incumbent cfg part)
          backend part)
      plan.Presolve.parts
  in
  match Presolve.lift_certified ~conservative:true plan sols with
  | Ok sol -> sol
  | Error m ->
      failwith ("Rc_analysis.Dispatch: presolve lift failed certification: " ^ m)

let solve ?profile cfg strategy (p : Problem.t) =
  (* The server passes its cached profile so a profile-cache hit really
     skips the top-level Profile.analyze; per-part incumbent profiling
     inside the presolve path is unaffected (parts are new graphs). *)
  let profiled = lazy (match profile with
    | Some pr -> pr
    | None -> Profile.analyze p)
  in
  match strategy with
  | Strategies.Irc _ | Strategies.Aggressive -> Strategies.run_cfg cfg strategy p
  | Strategies.Exact_conservative | Strategies.Exact_backend _ ->
      let profile = Lazy.force profiled in
      (* k-core gate: degeneracy >= k means not greedy-k-colorable;
         keep the direct path's typed Invalid_argument. *)
      if profile.Profile.degeneracy >= p.Problem.k then
        Strategies.run_cfg cfg strategy p
      else exact_with_presolve cfg strategy p
  | _ -> structural cfg strategy (Lazy.force profiled) p

let run ?profile mode cfg strategy p =
  match mode with
  | Direct -> Strategies.run_cfg cfg strategy p
  | Static_profile ->
      Strategies.checked cfg strategy p (fun () -> solve ?profile cfg strategy p)
