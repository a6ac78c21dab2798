module Strategies = Rc_core.Strategies
module Problem = Rc_core.Problem
module Graph = Rc_graph.Graph
module Profile = Rc_analysis.Profile

type source =
  | Synthetic of { n : int; maxlive : int; affinity_fraction : float }
  | Ssa of { k : int }
  | Clustered of {
      gadgets : int;
      size : int;
      maxlive : int;
      affinity_fraction : float;
    }

(* One source per instance: instance [i] is built from [List.nth
   sources i] with seed [Seed.split root i], so presets may mix
   instance families without perturbing the existing ones. *)
type preset = { sname : string; sources : source list }

let dup n s = List.init n (fun _ -> s)

let presets =
  [
    {
      sname = "smoke";
      sources =
        dup 2 (Synthetic { n = 2_000; maxlive = 8; affinity_fraction = 0.3 });
    };
    { sname = "ssa"; sources = dup 4 (Ssa { k = 6 }) };
    {
      sname = "10k";
      (* The third instance is the portfolio's: 10^4 vertices whose
         interference ∪ affinity union graph decomposes into small
         components, so exact:race can solve a cell the monolithic
         synthetic instances force every exact backend to refuse. *)
      sources =
        dup 2 (Synthetic { n = 10_000; maxlive = 12; affinity_fraction = 0.3 })
        @ [
            Clustered
              { gadgets = 500; size = 20; maxlive = 4; affinity_fraction = 0.3 };
          ];
    };
    {
      sname = "100k";
      sources =
        dup 2
          (Synthetic { n = 100_000; maxlive = 12; affinity_fraction = 0.3 });
    };
  ]

let n_instances preset = List.length preset.sources

let preset_of_string s =
  match List.find_opt (fun p -> p.sname = s) presets with
  | Some p -> Ok p
  | None ->
      Error
        (Printf.sprintf "unknown preset %S (have: %s)" s
           (String.concat ", " (List.map (fun p -> p.sname) presets)))

(* Vertex ceilings per strategy, from measured single-core costs on
   the synthetic interval family (k=12, aff=0.3; see DESIGN.md, engine
   section).  The worklist engine (Conservative.Engine + Rule_cache)
   and the speculative aggressive/commit paths removed the
   rescan-per-pass and replay-per-commit costs that used to cap
   aggressive, brute force, optimistic and the set search at 3*10^4:
   all four now sweep the 10^5 preset in full.  Class-local merges in
   [Coalescing] did the same for IRC briggs+george, whose answer replay
   used to rewrite every vertex's representative per merge (one 10^4
   instance: 1.24 s before, 0.15 s after; a 10^5 one now takes about
   2 s).  The per-affinity clique-tree strategy costs 28s at n=10^3
   and the branch-and-bound is exponential — cliffs of their own. *)
let scale_ceiling = function
  | Strategies.Aggressive -> 1_000_000
  | Strategies.Conservative _ -> 1_000_000
  | Strategies.Irc _ -> 1_000_000
  | Strategies.Optimistic -> 1_000_000
  | Strategies.Chordal_incremental -> 1_200
  | Strategies.Set_conservative _ -> 1_000_000
  | Strategies.Exact_conservative -> 40
  (* The portfolio decomposes along union components before searching,
     so its reach is set by component size, not instance size; other
     named backends stay at the branch-and-bound's cliff. *)
  | Strategies.Exact_backend "race" -> 10_000
  | Strategies.Exact_backend _ -> 40

type outcome =
  | Report of Strategies.report
  | Capped of { ceiling : int }
  | Failed of string

type cell = {
  strategy : string;
  instance : int;
  seed : int;
  outcome : outcome;
}

type row = {
  rstrategy : string;
  score : float;
  weight : int;
  total_weight : int;
  all_conservative : bool;
  time_s : float;
  evaluated : int;
  capped : int;
}

type t = {
  preset : preset;
  root_seed : int;
  domains : int;
  cells : cell array;
  leaderboard : row list;
  wall_s : float;
  classes : string array;  (** per-instance Profile.classification *)
  profiles : string array;  (** per-instance Profile.summary *)
}

let build_problem source seed =
  match source with
  | Synthetic { n; maxlive; affinity_fraction } ->
      (Rc_challenge.Challenge.synthetic ~seed:(Seed.to_int seed) ~n ~maxlive
         ~affinity_fraction ())
        .problem
  | Ssa { k } ->
      (Rc_challenge.Challenge.generate ~seed:(Seed.to_int seed) ~k ()).problem
  | Clustered { gadgets; size; maxlive; affinity_fraction } ->
      (Rc_challenge.Challenge.clustered ~seed:(Seed.to_int seed) ~gadgets ~size
         ~maxlive ~affinity_fraction ())
        .problem

let sources_a preset = Array.of_list preset.sources

let instance_problems ~seed preset =
  let root = Seed.of_int seed in
  Array.mapi
    (fun i source -> build_problem source (Seed.split root i))
    (sources_a preset)

let leaderboard_of_cells strategies (cells : cell array) =
  let rows =
    List.map
      (fun s ->
        let name = Strategies.name s in
        let mine =
          Array.to_list cells |> List.filter (fun c -> c.strategy = name)
        in
        let reports =
          List.filter_map
            (fun c -> match c.outcome with Report r -> Some r | _ -> None)
            mine
        in
        let capped =
          List.length
            (List.filter
               (fun c ->
                 match c.outcome with Capped _ -> true | _ -> false)
               mine)
        in
        let fraction (r : Strategies.report) =
          if r.total_weight = 0 then 1.0
          else float_of_int r.coalesced_weight /. float_of_int r.total_weight
        in
        {
          rstrategy = name;
          score =
            List.fold_left (fun acc r -> acc +. fraction r) 0.0 reports
            /. float_of_int (max 1 (List.length reports));
          weight =
            List.fold_left (fun acc (r : Strategies.report) ->
                acc + r.coalesced_weight)
              0 reports;
          total_weight =
            List.fold_left (fun acc (r : Strategies.report) ->
                acc + r.total_weight)
              0 reports;
          all_conservative =
            List.for_all (fun (r : Strategies.report) -> r.conservative) reports;
          time_s =
            List.fold_left (fun acc (r : Strategies.report) -> acc +. r.time_s)
              0.0 reports;
          evaluated = List.length reports;
          capped;
        })
      strategies
  in
  (* Decreasing score, ties by name: a deterministic leaderboard order
     is part of the canonical-report contract. *)
  List.sort
    (fun a b -> compare (-.a.score, a.rstrategy) (-.b.score, b.rstrategy))
    rows

let run ?pool ?domains ?(strategies = Strategies.all_heuristics)
    ?(check = Strategies.No_check) ~seed preset =
  let t0 = Rc_core.Mclock.now_ns () in
  let root = Seed.of_int seed in
  (* Instances are built once, sequentially, and shared read-only by
     every cell (persistent graphs are immutable); each cell still gets
     its own flat kernel inside the solver. *)
  let sources = sources_a preset in
  let instances = Array.length sources in
  let instance_seeds = Array.init instances (fun i -> Seed.split root i) in
  let problems =
    Array.mapi (fun i s -> build_problem sources.(i) s) instance_seeds
  in
  (* One structural profile per instance (deterministic, so both the
     class column and the summary lines are part of the canonical
     report). *)
  let instance_profiles = Array.map Profile.analyze problems in
  let classes = Array.map Profile.classification instance_profiles in
  let profiles = Array.map Profile.summary instance_profiles in
  let strategies_a = Array.of_list strategies in
  let n_strat = Array.length strategies_a in
  let tasks = n_strat * instances in
  let cell i =
    let si = i / instances and ii = i mod instances in
    let strategy = strategies_a.(si) in
    let p = problems.(ii) in
    let seed_i = Seed.to_int instance_seeds.(ii) in
    let n = Graph.num_vertices p.Problem.graph in
    let ceiling = scale_ceiling strategy in
    let outcome =
      if n > ceiling then Capped { ceiling }
      else
        let cfg = { Strategies.check; seed = seed_i } in
        match Strategies.evaluate_cfg cfg strategy p with
        | r -> Report r
        | exception Invalid_argument m -> Failed m
    in
    { strategy = Strategies.name strategy; instance = ii; seed = seed_i; outcome }
  in
  let run_cells pool = Pool.run pool ~tasks cell in
  let domains_used, cells =
    match pool with
    | Some pool -> (Pool.domains pool, run_cells pool)
    | None ->
        let domains =
          match domains with
          | Some d -> max 1 d
          | None -> Pool.recommended_domains ()
        in
        (domains, Pool.with_pool ~domains run_cells)
  in
  {
    preset;
    root_seed = seed;
    domains = domains_used;
    cells;
    leaderboard = leaderboard_of_cells strategies cells;
    wall_s = Rc_core.Mclock.elapsed_s t0;
    classes;
    profiles;
  }

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let source_to_string = function
  | Synthetic { n; maxlive; affinity_fraction } ->
      Printf.sprintf "synthetic n=%d maxlive=%d aff=%.2f" n maxlive
        affinity_fraction
  | Ssa { k } -> Printf.sprintf "ssa k=%d" k
  | Clustered { gadgets; size; maxlive; affinity_fraction } ->
      Printf.sprintf "clustered %dx%d maxlive=%d aff=%.2f" gadgets size maxlive
        affinity_fraction

(* The canonical report: everything deterministic, nothing timed.  The
   engine test suite and the CLI's --domains comparison hash this
   byte-for-byte, so keep timings and domain counts out. *)
let canonical t =
  let buf = Buffer.create 1024 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let sources = sources_a t.preset in
  pf "sweep %s x %d instances, seed %d\n" t.preset.sname (Array.length sources)
    t.root_seed;
  pf "-- instances --\n";
  Array.iteri
    (fun i s -> pf "#%d [%s] %s\n" i (source_to_string sources.(i)) s)
    t.profiles;
  pf "-- cells --\n";
  Array.iter
    (fun c ->
      let cls = t.classes.(c.instance) in
      match c.outcome with
      | Report r ->
          pf "%-28s #%d %-8s %6d/%-6d weight  %4d/%-4d moves  %s\n" c.strategy
            c.instance cls r.coalesced_weight r.total_weight r.coalesced_count
            r.affinity_count
            (if r.conservative then "conservative" else "NOT-k-colorable")
      | Capped { ceiling } ->
          pf "%-28s #%d %-8s capped (> %d vertices)\n" c.strategy c.instance
            cls ceiling
      | Failed m ->
          pf "%-28s #%d %-8s failed: %s\n" c.strategy c.instance cls m)
    t.cells;
  pf "-- leaderboard --\n";
  List.iter
    (fun r ->
      pf "%-28s %6.1f%% %8d/%-8d %s%s\n" r.rstrategy (100. *. r.score)
        r.weight r.total_weight
        (if r.all_conservative then "safe" else "UNSAFE")
        (if r.capped > 0 then
           Printf.sprintf "  [%d/%d capped]" r.capped (r.evaluated + r.capped)
         else ""))
    t.leaderboard;
  Buffer.contents buf

let pp ppf t = Format.fprintf ppf "%s" (canonical t)

let pp_timing ppf t =
  Format.fprintf ppf "-- timing (%d domains) --@." t.domains;
  List.iter
    (fun r ->
      if r.evaluated > 0 then
        Format.fprintf ppf "%-28s %9.3fs over %d cells@." r.rstrategy r.time_s
          r.evaluated)
    t.leaderboard;
  Format.fprintf ppf "sweep wall time %9.3fs@." t.wall_s

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "{\n";
  pf "  \"preset\": \"%s\",\n" (json_escape t.preset.sname);
  pf "  \"sources\": [%s],\n"
    (String.concat ", "
       (List.map
          (fun s -> Printf.sprintf "\"%s\"" (json_escape (source_to_string s)))
          t.preset.sources));
  pf "  \"instances\": %d,\n" (n_instances t.preset);
  pf "  \"seed\": %d,\n" t.root_seed;
  pf "  \"domains\": %d,\n" t.domains;
  pf "  \"wall_s\": %.6f,\n" t.wall_s;
  pf "  \"profiles\": [\n";
  Array.iteri
    (fun i s ->
      pf "    {\"instance\": %d, \"class\": \"%s\", \"summary\": \"%s\"}%s\n" i
        (json_escape t.classes.(i))
        (json_escape s)
        (if i < Array.length t.profiles - 1 then "," else ""))
    t.profiles;
  pf "  ],\n";
  pf "  \"cells\": [\n";
  Array.iteri
    (fun i c ->
      pf
        "    {\"strategy\": \"%s\", \"instance\": %d, \"seed\": %d, \
         \"class\": \"%s\", "
        (json_escape c.strategy) c.instance c.seed
        (json_escape t.classes.(c.instance));
      (match c.outcome with
      | Report r ->
          pf
            "\"outcome\": \"report\", \"coalesced_weight\": %d, \
             \"total_weight\": %d, \"coalesced_count\": %d, \
             \"affinity_count\": %d, \"conservative\": %b, \"time_s\": %.6f}"
            r.coalesced_weight r.total_weight r.coalesced_count
            r.affinity_count r.conservative r.time_s
      | Capped { ceiling } ->
          pf "\"outcome\": \"capped\", \"ceiling\": %d}" ceiling
      | Failed m -> pf "\"outcome\": \"failed\", \"error\": \"%s\"}"
                      (json_escape m));
      if i < Array.length t.cells - 1 then pf ",";
      pf "\n")
    t.cells;
  pf "  ],\n";
  pf "  \"leaderboard\": [\n";
  List.iteri
    (fun i r ->
      pf
        "    {\"strategy\": \"%s\", \"score\": %.6f, \"weight\": %d, \
         \"total_weight\": %d, \"conservative\": %b, \"time_s\": %.6f, \
         \"evaluated\": %d, \"capped\": %d}%s\n"
        (json_escape r.rstrategy) r.score r.weight r.total_weight
        r.all_conservative r.time_s r.evaluated r.capped
        (if i < List.length t.leaderboard - 1 then "," else ""))
    t.leaderboard;
  pf "  ]\n}\n";
  Buffer.contents buf
