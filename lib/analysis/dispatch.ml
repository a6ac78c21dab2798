module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing
module Strategies = Rc_core.Strategies
module Conservative = Rc_core.Conservative
module Backend = Rc_core.Solver_backend

let direct cfg strategy p =
  Strategies.run_cfg { cfg with Strategies.dispatch = Strategies.Direct } strategy p

(* The polynomial path the profile admits, or the named strategy. *)
let structural cfg strategy profile p =
  match Profile.interval_order profile with
  | Some order -> Interval_walk.coalesce ~order p
  | None ->
      if profile.Profile.chordal then
        direct cfg Strategies.Chordal_incremental p
      else direct cfg strategy p

(* A cheap conservative incumbent priming the exact search on one part. *)
let incumbent cfg (part : Problem.t) =
  let profile = Profile.analyze part in
  let sol =
    structural cfg
      (Strategies.Conservative Conservative.Briggs_george_extended)
      profile part
  in
  if Coalescing.is_conservative part sol then Some sol else None

(* Which registry entry solves the exact parts: [exact:NAME] names it
   inline, plain [exact] means ["bb"]. *)
let backend_name = function
  | Strategies.Exact_backend b -> b
  | _ -> "bb"

let exact_with_presolve cfg strategy (p : Problem.t) =
  let bk = Backend.find_exn (backend_name strategy) in
  let part_cfg = { cfg with Strategies.dispatch = Strategies.Direct } in
  let plan = Presolve.run ~level:Presolve.Full p in
  let sols =
    List.map
      (fun part ->
        bk.Backend.solve
          ~stop:(Rc_core.Cancel.probe ())
          ?prime:(incumbent cfg part)
          part_cfg strategy part)
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
  | Strategies.Irc _ | Strategies.Aggressive -> direct cfg strategy p
  | Strategies.Exact_conservative | Strategies.Exact_backend _ ->
      let profile = Lazy.force profiled in
      (* k-core gate: degeneracy >= k means not greedy-k-colorable;
         keep the direct path's typed Invalid_argument. *)
      if profile.Profile.degeneracy >= p.Problem.k then direct cfg strategy p
      else exact_with_presolve cfg strategy p
  | _ -> structural cfg strategy (Lazy.force profiled) p

let installed = ref false

let install () =
  if not !installed then begin
    installed := true;
    Backend.register
      {
        Backend.bname = "static";
        describe =
          "profile-driven router: interval walk / chordal path / \
           presolve-primed exact";
        caps = { Backend.exact = false; router = true };
        solve =
          (fun ?stop ?prime cfg strategy p ->
            ignore prime;
            (* The registry's stop probe is ambient by the time the
               routed primitives run (run_cfg re-installs it); routing
               itself is cheap enough not to poll. *)
            ignore stop;
            solve cfg strategy p);
      }
  end
