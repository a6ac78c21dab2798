(* Command-line front end.

   coalesce generate  --seed 7 --k 6 [--dot out.dot] [--chordal]
   coalesce solve     --seed 7 --k 6 --strategy briggs|...|exact
                      [--dispatch direct|static]
   coalesce analyze   --seed 7 --k 6 [--chordal | --file F | --preset NAME]
                      [--level full|split] [--json FILE]
   coalesce check     --seed 7 --k 6 [--strategy NAME] [--lint]
   coalesce sweep     --preset smoke|ssa|10k|100k --domains 4 [--json FILE]
   coalesce reduction --theorem 2|3|4|6 --seed 5 [--size 6]
   coalesce thm5      --seed 3 --n 200
   coalesce allocate  --seed 7 --k 6 [--biased]
   coalesce serve     --socket PATH | --listen HOST:PORT | --stdio
                      [--domains 4] [--max-conns 32] [--no-certify]
                      [--cache-entries N] [--dispatch direct|static]
   coalesce client    --socket PATH | --connect HOST:PORT
                      [--seed 7 | --file F] [--repeat 3]
   coalesce convert   --file IN --out OUT [--to binary|text]

   All instances are deterministic in --seed; sweep reports are
   additionally byte-identical at any --domains value, and a served
   answer is byte-identical to the one-shot `solve` output. *)

open Cmdliner
module G = Rc_graph.Graph
module Strategies = Rc_core.Strategies

(* Shared flag vocabulary ---------------------------------------------- *)
(* Every subcommand draws its flags from here, so --seed, --k,
   --domains, --json and --strategy spell and behave the same way
   everywhere. *)
module Common = struct
  let strategy_conv =
    let parse s =
      match Strategies.of_string s with
      | Ok s -> Ok s
      | Error m -> Error (`Msg m)
    in
    let print ppf s = Format.fprintf ppf "%s" (Strategies.name s) in
    Arg.conv (parse, print)

  let check_conv =
    let parse = function
      | "none" -> Ok Strategies.No_check
      | "input" -> Ok Strategies.Validate_input
      | "conservative" -> Ok Strategies.Assert_conservative
      | s ->
          Error
            (`Msg
               (Printf.sprintf
                  "unknown check level %S (none, input, conservative)" s))
    in
    let print ppf = function
      | Strategies.No_check -> Format.fprintf ppf "none"
      | Strategies.Validate_input -> Format.fprintf ppf "input"
      | Strategies.Assert_conservative -> Format.fprintf ppf "conservative"
    in
    Arg.conv (parse, print)

  let seed =
    Arg.(
      value & opt int 2026 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

  let k =
    Arg.(
      value & opt int 6
      & info [ "k"; "registers" ] ~docv:"K" ~doc:"Number of registers.")

  let domains =
    Arg.(
      value
      & opt (some int) None
      & info [ "domains" ] ~docv:"N"
          ~doc:
            "Domains to run on, including the caller's (defaults to the \
             runtime's recommended count).")

  let json =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Also write a JSON report to $(docv).")

  let strategy ~doc =
    Arg.(value & opt (some strategy_conv) None & info [ "strategy" ] ~docv:"NAME" ~doc)

  let strategy_names =
    "aggressive, briggs, george, briggs-george, briggs-george-ext, \
     brute-force, irc, irc-briggs, optimistic, chordal, set2, set3, exact, \
     exact:bb, exact:pb, exact:race"

  let chordal =
    Arg.(value & flag & info [ "chordal" ] ~doc:"Chordal instance flavor.")

  let file =
    Arg.(
      value
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE"
          ~doc:
            "Load the instance from $(docv) (see Instance_io for the format) \
             instead of generating one.")

  let check =
    Arg.(
      value
      & opt check_conv Strategies.No_check
      & info [ "check" ] ~docv:"LEVEL"
          ~doc:
            "Per-cell checking: none, input (validate the problem), or \
             conservative (assert the k-colorability claim).")

  let read_all path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))

  (* Instance files are sniffed: the binary format's magic decides
     which decoder runs, so --file takes either encoding everywhere. *)
  let load_instance path =
    let data = try read_all path with Sys_error m -> failwith m in
    let r =
      if Rc_challenge.Instance_io.is_binary data then
        Result.map_error Rc_challenge.Instance_io.bin_error_to_string
          (Rc_challenge.Instance_io.of_binary data)
      else Rc_challenge.Instance_io.parse data
    in
    match r with
    | Ok p -> p
    | Error m -> failwith (Printf.sprintf "%s: %s" path m)

  let load_problem ~seed ~k ~chordal = function
    | Some path -> load_instance path
    | None ->
        (Rc_challenge.Challenge.generate ~seed ~move_aware:(not chordal) ~k ())
          .problem

  let write_json file contents =
    let oc = open_out file in
    output_string oc contents;
    close_out oc;
    Format.printf "wrote %s@." file
end

let instance ~seed ~k ~chordal =
  Rc_challenge.Challenge.generate ~seed ~move_aware:(not chordal) ~k ()

(* generate ----------------------------------------------------------- *)

let generate_cmd =
  let dot_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dot" ] ~docv:"FILE" ~doc:"Write a Graphviz rendering to $(docv).")
  in
  let chordal_arg =
    Arg.(
      value & flag
      & info [ "chordal" ]
          ~doc:
            "Use pure live-range-intersection interference (Theorem 1: the \
             instance is then chordal).")
  in
  let run seed k dot chordal =
    let inst = instance ~seed ~k ~chordal in
    Format.printf "%s@." (Rc_core.Problem.stats inst.problem);
    Format.printf "maxlive=%d chordal=%b greedy-%d-colorable=%b col=%d@."
      inst.maxlive
      (Rc_graph.Chordal.is_chordal inst.problem.graph)
      k
      (Rc_graph.Greedy_k.is_greedy_k_colorable inst.problem.graph k)
      (Rc_graph.Greedy_k.coloring_number inst.problem.graph);
    match dot with
    | None -> ()
    | Some file ->
        Rc_graph.Dot.write_file file
          ~affinities:
            (List.map
               (fun (a : Rc_core.Problem.affinity) -> (a.u, a.v))
               inst.problem.affinities)
          inst.problem.graph;
        Format.printf "wrote %s@." file
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate a synthetic coalescing instance.")
    Term.(const run $ Common.seed $ Common.k $ dot_arg $ chordal_arg)

(* solve -------------------------------------------------------------- *)

(* Shared by solve and serve: the same MODE names select the same
   routing on both sides of the wire. *)
let dispatch_conv =
  let parse = function
    | "direct" -> Ok Rc_analysis.Dispatch.Direct
    | "static" -> Ok Rc_analysis.Dispatch.Static_profile
    | s -> Error (`Msg (Printf.sprintf "unknown dispatch %S (direct, static)" s))
  in
  let print ppf = function
    | Rc_analysis.Dispatch.Direct -> Format.fprintf ppf "direct"
    | Rc_analysis.Dispatch.Static_profile -> Format.fprintf ppf "static"
  in
  Arg.conv (parse, print)

let solve_cmd =
  let strategy_arg =
    Common.strategy
      ~doc:
        (Printf.sprintf "Strategy: %s.  Omit to run all heuristics."
           Common.strategy_names)
  in
  let timing_arg =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Also time each strategy and print pp_report lines with wall \
             times.  Without it, the output is the canonical answer text — \
             byte-identical to what `coalesce serve` streams for the same \
             instance and strategy.")
  in
  let dispatch_arg =
    Arg.(
      value
      & opt dispatch_conv Rc_analysis.Dispatch.Direct
      & info [ "dispatch" ] ~docv:"MODE"
          ~doc:
            "Solve routing: direct (the named strategy's primitive) or static \
             (profile the instance first and route interval instances to the \
             endpoint walk, chordal ones to the Theorem-5 path, and exact \
             requests through certified presolve).")
  in
  let run seed k strategy chordal file check timing dispatch =
    let problem = Common.load_problem ~seed ~k ~chordal file in
    let strategies =
      match strategy with Some s -> [ s ] | None -> Strategies.all_heuristics
    in
    let cfg = { Strategies.check; seed } in
    if not timing then
      print_string
        (Rc_engine.Server.one_shot ~dispatch ~config:cfg ~strategies problem)
    else begin
      Format.printf "%s@." (Rc_core.Problem.stats problem);
      List.iter
        (fun s ->
          let r =
            Strategies.evaluate_with (Rc_analysis.Dispatch.run dispatch cfg) s
              problem
          in
          Format.printf "%a@." Strategies.pp_report r)
        strategies
    end
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Run coalescing strategies on an instance.")
    Term.(
      const run $ Common.seed $ Common.k $ strategy_arg $ Common.chordal
      $ Common.file $ Common.check $ timing_arg $ dispatch_arg)

(* analyze ------------------------------------------------------------- *)
(* The static analyzer as a subcommand: the structural profile
   (Rc_analysis.Profile) plus certified presolve statistics, over the
   same instance sources as solve.  --json writes one object with a
   "profile" field (Profile.to_json verbatim) and a "presolve" field. *)

let analyze_cmd =
  let level_arg =
    let level_conv =
      let parse = function
        | "full" -> Ok Rc_analysis.Presolve.Full
        | "split" -> Ok Rc_analysis.Presolve.Split_only
        | s -> Error (`Msg (Printf.sprintf "unknown level %S (full, split)" s))
      in
      let print ppf = function
        | Rc_analysis.Presolve.Full -> Format.fprintf ppf "full"
        | Rc_analysis.Presolve.Split_only -> Format.fprintf ppf "split"
      in
      Arg.conv (parse, print)
    in
    Arg.(
      value
      & opt level_conv Rc_analysis.Presolve.Full
      & info [ "level" ] ~docv:"LEVEL"
          ~doc:
            "Presolve level: full (peel + twin merge + splits, \
             optimum-preserving) or split (component and articulation splits \
             only, trajectory-preserving for every local-rule heuristic).")
  in
  let preset_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "preset" ] ~docv:"NAME"
          ~doc:
            "Profile every instance of a sweep preset (smoke, ssa, 10k, \
             100k) — exactly the instances a sweep at this --seed \
             evaluates — instead of a single generated instance.")
  in
  let run seed k chordal file level preset json =
    let level_token =
      match level with
      | Rc_analysis.Presolve.Full -> "full"
      | Rc_analysis.Presolve.Split_only -> "split"
    in
    (* profile + presolve of one instance: the JSON object, after
       printing the text report through [pp_profile] *)
    let report ~pp_profile problem =
      let profile = Rc_analysis.Profile.analyze problem in
      let plan = Rc_analysis.Presolve.run ~level problem in
      let st = Rc_analysis.Presolve.stats plan in
      let shrink = Rc_analysis.Presolve.shrink plan in
      pp_profile profile;
      Format.printf
        "presolve level=%s vertices=%d/%d peeled=%d twins=%d parts=%d \
         largest=%d shrink=%.3f@."
        level_token st.residual_vertices st.original_vertices st.peeled
        st.twins st.part_count st.largest_part shrink;
      Printf.sprintf
        "{\"profile\": %s, \"presolve\": {\"level\": \"%s\", \
         \"original_vertices\": %d, \"residual_vertices\": %d, \"peeled\": \
         %d, \"twins\": %d, \"part_count\": %d, \"largest_part\": %d, \
         \"shrink\": %.6f}}"
        (Rc_analysis.Profile.to_json profile)
        level_token st.original_vertices st.residual_vertices st.peeled
        st.twins st.part_count st.largest_part shrink
    in
    match preset with
    | Some name ->
        if file <> None then
          failwith "analyze: --preset and --file are mutually exclusive";
        let p =
          match Rc_engine.Sweep.preset_of_string name with
          | Ok p -> p
          | Error m -> failwith m
        in
        let problems = Rc_engine.Sweep.instance_problems ~seed p in
        let objs =
          Array.to_list
            (Array.mapi
               (fun i problem ->
                 let pp_profile profile =
                   Format.printf "#%d %s@." i
                     (Rc_analysis.Profile.summary profile)
                 in
                 Printf.sprintf "    {\"instance\": %d, %s}" i
                   (let obj = report ~pp_profile problem in
                    (* splice the two fields into the instance object *)
                    String.sub obj 1 (String.length obj - 2)))
               problems)
        in
        Option.iter
          (fun f ->
            Common.write_json f
              (Printf.sprintf
                 "{\n  \"preset\": \"%s\",\n  \"instances\": [\n%s\n  ]\n}\n"
                 p.Rc_engine.Sweep.sname
                 (String.concat ",\n" objs)))
          json
    | None ->
        let problem = Common.load_problem ~seed ~k ~chordal file in
        let obj =
          report
            ~pp_profile:(Format.printf "%a@." Rc_analysis.Profile.pp)
            problem
        in
        Option.iter
          (fun f ->
            Common.write_json f
              (Printf.sprintf "{\n  %s\n}\n"
                 (String.sub obj 1 (String.length obj - 2))))
          json
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:
         "Profile an instance (structure, chordality, interval recognition) \
          and report certified presolve statistics.")
    Term.(
      const run $ Common.seed $ Common.k $ Common.chordal $ Common.file
      $ level_arg $ preset_arg $ Common.json)

(* check -------------------------------------------------------------- *)

let check_cmd =
  let strategy_arg =
    Common.strategy
      ~doc:
        "Strategy to certify (same names as solve).  Omit to certify every \
         heuristic."
  in
  let lint_arg =
    Arg.(
      value & flag
      & info [ "lint" ]
          ~doc:
            "Also run the IR/SSA lint and Theorem-1 check on the generated \
             program (generated instances only).")
  in
  let claims_for (s : Strategies.t) =
    match s with
    | Strategies.Aggressive -> []
    | Strategies.Conservative _ | Strategies.Irc _ | Strategies.Optimistic
    | Strategies.Chordal_incremental | Strategies.Set_conservative _
    | Strategies.Exact_conservative | Strategies.Exact_backend _ ->
        [ Rc_check.Certify.Conservative ]
  in
  let run seed k strategy chordal file lint =
    if Rc_check.Sanitize.install_if_enabled () then
      Format.printf "sanitizer: enabled (profile %s)@."
        Rc_check.Sanitize.profile;
    let failures = ref 0 in
    (if lint && file = None then begin
       let prog =
         Rc_ir.Randprog.generate
           (Random.State.make [| seed |])
           Rc_ir.Randprog.default_config
       in
       let ssa = Rc_ir.Ssa.construct prog in
       match Rc_check.Lint.check_theorem1 ssa with
       | [] ->
           Format.printf
             "lint: structure + strict SSA + Theorem 1 (chordal, omega = \
              Maxlive) OK@."
       | vs ->
           incr failures;
           List.iter
             (fun v -> Format.printf "lint: %s@." (Rc_check.Lint.to_string v))
             vs
     end);
    let problem = Common.load_problem ~seed ~k ~chordal file in
    Format.printf "%s@." (Rc_core.Problem.stats problem);
    let strategies =
      match strategy with Some s -> [ s ] | None -> Strategies.all_heuristics
    in
    let cfg = { Strategies.default_config with seed } in
    let solve s =
      (* IRC may spill, leaving a solution over a reduced instance the
         original problem cannot certify — detect and skip. *)
      match s with
      | Strategies.Irc r ->
          let res = Rc_core.Irc.allocate ~rule:r problem in
          if res.spilled = [] then Ok res.solution
          else
            Error
              (Printf.sprintf "spilled %d vertices; reduced instance"
                 (List.length res.spilled))
      | s -> Ok (Strategies.run_cfg cfg s problem)
    in
    List.iter
      (fun s ->
        let name = Strategies.name s in
        match solve s with
        | exception Invalid_argument m ->
            Format.printf "%-28s skipped (%s)@." name m
        | Error m -> Format.printf "%-28s skipped (%s)@." name m
        | Ok sol ->
            let claims = claims_for s in
            let report =
              Rc_check.Certify.certify_solution ~claims problem sol
            in
            if not (Rc_check.Certify.ok report) then incr failures;
            Format.printf "%-28s %a@." name Rc_check.Certify.pp_report report)
      strategies;
    if !failures > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "check"
       ~doc:
         "Run strategies and independently certify their answers \
          (Rc_check.Certify); non-zero exit on any violation.")
    Term.(
      const run $ Common.seed $ Common.k $ strategy_arg $ Common.chordal
      $ Common.file $ lint_arg)

(* sweep -------------------------------------------------------------- *)

let preset_arg =
  let preset_conv =
    let parse s =
      match Rc_engine.Sweep.preset_of_string s with
      | Ok p -> Ok p
      | Error m -> Error (`Msg m)
    in
    let print ppf (p : Rc_engine.Sweep.preset) =
      Format.fprintf ppf "%s" p.sname
    in
    Arg.conv (parse, print)
  in
  let default =
    match Rc_engine.Sweep.preset_of_string "smoke" with
    | Ok p -> p
    | Error m -> invalid_arg m
  in
  Arg.(
    value & opt preset_conv default
    & info [ "preset" ] ~docv:"NAME"
        ~doc:
          "Instance preset: smoke (2k vertices), ssa, 10k (two monolithic \
           synthetic instances plus one clustered portfolio instance) or \
           100k (the $(b,10^5)-vertex synthetic family).")

let sweep_cmd =
  let strategy_arg =
    Common.strategy
      ~doc:"Restrict the sweep to one strategy (same names as solve)."
  in
  let strategies_arg =
    Arg.(
      value
      & opt (some (list ~sep:',' Common.strategy_conv)) None
      & info [ "strategies" ] ~docv:"NAMES"
          ~doc:
            "Comma-separated strategy list (same names as solve — e.g. \
             exact,exact:race to sweep the branch-and-bound against the \
             portfolio).")
  in
  let timing_arg =
    Arg.(
      value & flag
      & info [ "timing" ]
          ~doc:
            "Also print per-strategy wall times (excluded from the canonical \
             report, which is domain-count independent).")
  in
  let run seed preset domains check strategy strategies timing json =
    if Rc_check.Sanitize.install_if_enabled () then
      Format.printf "sanitizer: enabled (profile %s)@."
        Rc_check.Sanitize.profile;
    let strategies =
      match (strategies, strategy) with
      | Some _, Some _ ->
          failwith "sweep: --strategy and --strategies are exclusive"
      | Some [], _ -> failwith "sweep: --strategies needs at least one name"
      | Some l, None -> l
      | None, Some s -> [ s ]
      | None, None -> Strategies.all_heuristics
    in
    let t = Rc_engine.Sweep.run ?domains ~check ~strategies ~seed preset in
    Format.printf "%a" Rc_engine.Sweep.pp t;
    if timing then Format.printf "%a" Rc_engine.Sweep.pp_timing t;
    Option.iter
      (fun f -> Common.write_json f (Rc_engine.Sweep.to_json t))
      json
  in
  Cmd.v
    (Cmd.info "sweep"
       ~doc:
         "Fan a strategy x instance leaderboard out over a domain pool.  The \
          report (without --timing) is byte-identical at any --domains \
          value.")
    Term.(
      const run $ Common.seed $ preset_arg $ Common.domains $ Common.check
      $ strategy_arg $ strategies_arg $ timing_arg $ Common.json)

(* reduction ---------------------------------------------------------- *)

let reduction_cmd =
  let theorem_arg =
    Arg.(
      required
      & opt (some int) None
      & info [ "theorem" ] ~docv:"N" ~doc:"Theorem number: 2, 3, 4 or 6.")
  in
  let size_arg =
    Arg.(
      value & opt int 6
      & info [ "size" ] ~docv:"N" ~doc:"Size of the random source instance.")
  in
  let run seed theorem size =
    let rng = Random.State.make [| seed |] in
    match theorem with
    | 2 ->
        let inst =
          Rc_reductions.Multiway_cut.random rng ~n:size ~p:0.4 ~terminals:3
        in
        let cut, _ = Rc_reductions.Multiway_cut.solve inst in
        let gadget = Rc_reductions.Thm2_aggressive.build inst in
        Format.printf "min multiway cut = %d; min uncoalesced = %d; agree = %b@."
          cut
          (Rc_reductions.Thm2_aggressive.min_uncoalesced gadget)
          (cut = Rc_reductions.Thm2_aggressive.min_uncoalesced gadget);
        Ok ()
    | 3 ->
        let src = Rc_graph.Generators.gnp rng ~n:size ~p:0.45 in
        let colorable, coalescable =
          Rc_reductions.Thm3_conservative.verify src ~k:3
        in
        Format.printf "3-colorable = %b; fully coalescable = %b; agree = %b@."
          colorable coalescable (colorable = coalescable);
        Ok ()
    | 4 ->
        let cnf =
          Rc_reductions.Sat.random_3sat rng ~vars:(max 3 (size - 2))
            ~clauses:(3 * size)
        in
        let sat, coalescable = Rc_reductions.Thm4_incremental.verify cnf in
        Format.printf "satisfiable = %b; (x0, F) coalescable = %b; agree = %b@."
          sat coalescable (sat = coalescable);
        Ok ()
    | 6 ->
        let src =
          Rc_graph.Generators.random_bounded_degree rng ~n:(min size 6)
            ~max_degree:3 ~edges:size
        in
        let vc = G.ISet.cardinal (Rc_reductions.Vertex_cover.minimum src) in
        let gadget = Rc_reductions.Thm6_optimistic.build src in
        let dc = Rc_reductions.Thm6_optimistic.min_decoalesced gadget in
        Format.printf
          "min vertex cover = %d; min de-coalescings = %d; agree = %b@." vc dc
          (vc = dc);
        Ok ()
    | n -> Error (Printf.sprintf "no Theorem %d reduction (use 2, 3, 4 or 6)" n)
  in
  let run seed theorem size =
    match run seed theorem size with
    | Ok () -> ()
    | Error m -> prerr_endline m
  in
  Cmd.v
    (Cmd.info "reduction" ~doc:"Verify one of the NP-completeness reductions.")
    Term.(const run $ Common.seed $ theorem_arg $ size_arg)

(* thm5 ---------------------------------------------------------------- *)

let thm5_cmd =
  let n_arg =
    Arg.(
      value & opt int 200
      & info [ "n"; "vertices" ] ~docv:"N"
          ~doc:"Number of vertices of the chordal graph.")
  in
  let run seed n =
    let rng = Random.State.make [| seed |] in
    let g = Rc_graph.Generators.random_chordal rng ~n ~extra:(n / 2) in
    let k = Rc_graph.Chordal.omega g in
    let vs = Array.of_list (G.vertices g) in
    let rec pick i j =
      if i >= Array.length vs then None
      else if j >= Array.length vs then pick (i + 1) (i + 2)
      else if not (G.mem_edge g vs.(i) vs.(j)) then Some (vs.(i), vs.(j))
      else pick i (j + 1)
    in
    match pick 0 1 with
    | None -> print_endline "graph is complete; nothing to coalesce"
    | Some (x, y) -> (
        Format.printf "n=%d omega=%d affinity=(%d, %d)@." n k x y;
        match Rc_core.Chordal_coalescing.decide g ~k x y with
        | Rc_core.Chordal_coalescing.Coalescable chain ->
            Format.printf "coalescable; certificate chain of %d vertices@."
              (List.length chain)
        | Rc_core.Chordal_coalescing.Uncoalescable reason ->
            Format.printf "not coalescable: %s@." reason)
  in
  Cmd.v
    (Cmd.info "thm5"
       ~doc:"Run the polynomial chordal incremental-coalescing test.")
    Term.(const run $ Common.seed $ n_arg)

(* allocate -------------------------------------------------------------- *)

let allocate_cmd =
  let biased_arg =
    Arg.(
      value & flag
      & info [ "biased" ] ~doc:"Biased select-phase coloring (Section 1).")
  in
  let run seed k biased =
    let prog =
      Rc_ir.Randprog.generate (Random.State.make [| seed |])
        Rc_ir.Randprog.default_config
    in
    let r = Rc_regalloc.Regalloc.allocate ~biased prog ~k in
    Format.printf
      "registers=%d rounds=%d moves %d -> %d; dynamic check: %b@."
      r.registers_used r.rebuild_rounds r.moves_before r.moves_after
      (Rc_regalloc.Regalloc.check r)
  in
  Cmd.v
    (Cmd.info "allocate"
       ~doc:
         "Run the end-to-end register allocator on a random program and \
          validate it with the symbolic interpreter.")
    Term.(const run $ Common.seed $ Common.k $ biased_arg)

(* serve / client / convert ------------------------------------------- *)

module Server = Rc_engine.Server

let socket_info =
  Arg.info [ "socket" ] ~docv:"PATH"
    ~doc:"Unix-domain socket path (keep it short: the OS caps it near 107 \
          bytes)."

let socket_opt = Arg.(value & opt (some string) None & socket_info)

(* HOST:PORT splitter shared by serve --listen and client --connect. *)
let parse_host_port spec =
  match String.rindex_opt spec ':' with
  | None -> failwith (Printf.sprintf "%S is not HOST:PORT" spec)
  | Some i -> (
      let host = String.sub spec 0 i in
      let host = if host = "" then "127.0.0.1" else host in
      match int_of_string_opt (String.sub spec (i + 1) (String.length spec - i - 1)) with
      | Some port when port >= 0 && port <= 0xffff -> (host, port)
      | _ -> failwith (Printf.sprintf "%S is not HOST:PORT" spec))

let serve_cmd =
  let stdio_arg =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:"Serve one framed session over stdin/stdout instead of a \
                socket.")
  in
  let no_certify_arg =
    Arg.(
      value & flag
      & info [ "no-certify" ]
          ~doc:"Skip the independent certification pass on served answers.")
  in
  let cache_arg =
    Arg.(
      value & opt int Server.default_config.cache_capacity
      & info
          [ "cache-entries"; "cache" ]
          ~docv:"N"
          ~doc:
            "Answer-cache entry capacity (LRU: inserting past it evicts the \
             least-recently-used entry).")
  in
  let listen_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "listen" ] ~docv:"HOST:PORT"
          ~doc:
            "Serve over TCP on $(docv) instead of a Unix socket (port 0 \
             binds an ephemeral port, printed on startup).")
  in
  let max_conns_arg =
    Arg.(
      value
      & opt int Server.default_config.max_conns
      & info [ "max-conns" ] ~docv:"N"
          ~doc:
            "Live-connection bound: connections beyond $(docv) concurrent \
             sessions are refused with the typed server-busy code (11).")
  in
  let serve_dispatch_arg =
    Arg.(
      value
      & opt dispatch_conv Rc_analysis.Dispatch.Direct
      & info [ "dispatch" ] ~docv:"MODE"
          ~doc:
            "Solve routing for served requests: direct, or static to route \
             through the profile-driven dispatcher acting on the server's \
             profile cache.  Answers are byte-identical either way.")
  in
  let run socket listen stdio domains no_certify cache max_conns dispatch =
    if Rc_check.Sanitize.install_if_enabled () then
      Format.printf "sanitizer: enabled (profile %s)@."
        Rc_check.Sanitize.profile;
    let config =
      {
        Server.default_config with
        domains = (match domains with Some d -> max 1 d | None -> 1);
        certify = not no_certify;
        cache_capacity = max 1 cache;
        max_conns = max 1 max_conns;
        dispatch;
      }
    in
    match (socket, listen, stdio) with
    | Some path, None, false ->
        Server.with_server ~config (fun t ->
            Format.printf "serving on %s (domains=%d certify=%b max-conns=%d)@."
              path config.domains config.certify config.max_conns;
            Server.serve_unix t ~path;
            Format.printf "server: drained and shut down@.")
    | None, Some spec, false ->
        let host, port = parse_host_port spec in
        Server.with_server ~config (fun t ->
            Server.serve_tcp t
              ~ready:(fun bound ->
                Format.printf
                  "serving on %s:%d (domains=%d certify=%b max-conns=%d)@."
                  host bound config.domains config.certify config.max_conns)
              ~host ~port ();
            Format.printf "server: drained and shut down@.")
    | None, None, true -> Server.with_server ~config Server.serve_stdio
    | None, None, false ->
        failwith "serve: need --socket PATH, --listen HOST:PORT or --stdio"
    | _ ->
        failwith "serve: --socket, --listen and --stdio are exclusive"
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Coalescing as a service: accept length-prefixed batched SOLVE \
          frames over Unix or TCP sockets, serve each connection on its own \
          domain (a shared pool solves the batches), stream certified \
          answers back in submission order (see DESIGN.md for the wire \
          protocol and concurrency model).")
    Term.(
      const run $ socket_opt $ listen_arg $ stdio_arg $ Common.domains
      $ no_certify_arg $ cache_arg $ max_conns_arg $ serve_dispatch_arg)

let client_cmd =
  let text_arg =
    Arg.(
      value & flag
      & info [ "text" ]
          ~doc:"Ship the instance in the text format (default: binary).")
  in
  let repeat_arg =
    Arg.(
      value & opt int 1
      & info [ "repeat" ] ~docv:"N"
          ~doc:"Submit the instance $(docv) times in one batch (repeats are \
                answered from the cache).")
  in
  let ping_arg =
    Arg.(value & flag & info [ "ping" ] ~doc:"Just ping the server.")
  in
  let stats_arg =
    Arg.(value & flag & info [ "stats" ] ~doc:"Print the server's counters.")
  in
  let shutdown_arg =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to drain and shut down.")
  in
  let connect_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "connect" ] ~docv:"HOST:PORT"
          ~doc:"Connect to a TCP server at $(docv) instead of a Unix socket.")
  in
  let run socket tcp seed k chordal file strategy text ping stats shutdown
      repeat =
    let open Server.Client in
    let reaching what connect =
      try connect ()
      with Unix.Unix_error (e, _, _) ->
        failwith
          (Printf.sprintf "cannot connect to %s: %s" what (Unix.error_message e))
    in
    let fd =
      match (socket, tcp) with
      | Some path, None -> reaching path (fun () -> connect path)
      | None, Some spec ->
          let host, port = parse_host_port spec in
          reaching spec (fun () -> connect_tcp host port)
      | Some _, Some _ -> failwith "client: --socket and --connect are exclusive"
      | None, None -> failwith "client: need --socket PATH or --connect HOST:PORT"
    in
    Fun.protect
      ~finally:(fun () -> close fd)
      (fun () ->
        let fail_on = function
          | Eof -> failwith "server closed the connection"
          | Resp (Error { code; message }) ->
              failwith (Printf.sprintf "server error %d: %s" code message)
          | Resp r -> r
        in
        if ping then begin
          send_ping fd;
          match fail_on (recv fd) with
          | Pong -> print_endline "pong"
          | _ -> failwith "no pong"
        end
        else if stats then begin
          send_stats fd;
          match fail_on (recv fd) with
          | Stats s -> print_string s
          | _ -> failwith "no stats"
        end
        else if shutdown then begin
          send_shutdown fd;
          match fail_on (recv fd) with
          | Bye -> print_endline "bye"
          | _ -> failwith "no bye"
        end
        else begin
          let problem = Common.load_problem ~seed ~k ~chordal file in
          let encoding, instance =
            if text then (`Text, Rc_challenge.Instance_io.print problem)
            else (`Binary, Rc_challenge.Instance_io.to_binary problem)
          in
          let strategy = Option.map Strategies.name strategy in
          let repeat = max 1 repeat in
          for _ = 1 to repeat do
            send_solve fd ?strategy ~encoding instance
          done;
          send_flush fd;
          for _ = 1 to repeat do
            match fail_on (recv fd) with
            | Answer { cache_hit; certified; text } ->
                (* Metadata on stderr so stdout diffs cleanly against the
                   one-shot `solve` output. *)
                Printf.eprintf "# cache_hit=%b certified=%b\n%!" cache_hit
                  certified;
                print_string text
            | _ -> failwith "unexpected response type"
          done
        end)
  in
  Cmd.v
    (Cmd.info "client"
       ~doc:
         "Submit an instance (or a control frame) to a running `coalesce \
          serve` and print the streamed answer; stdout is byte-identical to \
          the one-shot `solve` output for the same instance and strategy.")
    Term.(
      const run $ socket_opt $ connect_arg $ Common.seed $ Common.k
      $ Common.chordal $ Common.file
      $ Common.strategy
          ~doc:"Strategy to request (same names as solve); omit for all \
                heuristics."
      $ text_arg $ ping_arg $ stats_arg $ shutdown_arg $ repeat_arg)

let convert_cmd =
  let out_arg =
    Arg.(
      required
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE" ~doc:"Output path.")
  in
  let to_arg =
    let enc_conv =
      Arg.conv
        ( (function
          | "binary" -> Ok `Binary
          | "text" -> Ok `Text
          | s -> Error (`Msg (Printf.sprintf "unknown encoding %S" s))),
          fun ppf e ->
            Format.pp_print_string ppf
              (match e with `Binary -> "binary" | `Text -> "text") )
    in
    Arg.(
      value & opt enc_conv `Binary
      & info [ "to" ] ~docv:"ENC" ~doc:"Target encoding: binary or text.")
  in
  let run seed k chordal file out target =
    let problem = Common.load_problem ~seed ~k ~chordal file in
    (match target with
    | `Binary -> Rc_challenge.Instance_io.write_binary_file out problem
    | `Text -> Rc_challenge.Instance_io.write_file out problem);
    Format.printf "wrote %s (hash %s)@." out
      (Rc_challenge.Instance_io.canonical_hash problem)
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Re-encode an instance between the text grammar and the binary \
          format (both are sniffed on input; the two encodings are \
          interconvertible without loss).")
    Term.(
      const run $ Common.seed $ Common.k $ Common.chordal $ Common.file
      $ out_arg $ to_arg)

(* A [Failure] or [Sys_error] that escapes a subcommand carries a
   message for the user (a refused instance, an unreachable server, a
   missing file): one line on stderr and cmdliner's some-error code.
   Any other exception is a bug and keeps cmdliner's internal-error
   report and code. *)
let () =
  let info =
    Cmd.info "coalesce" ~version:"1.0"
      ~doc:"Register-coalescing complexity toolbox (Bouchez–Darte–Rastello)."
  in
  let cmd =
    Cmd.group info
      [
        generate_cmd;
        solve_cmd;
        analyze_cmd;
        check_cmd;
        sweep_cmd;
        reduction_cmd;
        thm5_cmd;
        allocate_cmd;
        serve_cmd;
        client_cmd;
        convert_cmd;
      ]
  in
  exit
    (try Cmd.eval ~catch:false cmd with
    | Failure m | Sys_error m ->
        prerr_endline ("coalesce: " ^ m);
        Cmd.Exit.some_error
    | e ->
        Printf.eprintf "coalesce: internal error, uncaught exception:\n%s\n%!"
          (Printexc.to_string e);
        Cmd.Exit.internal_error)
