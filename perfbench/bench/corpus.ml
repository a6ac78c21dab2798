(* Seeded workload inputs.  Everything the server receives is generated
   here from the workload seed, before any timed phase. *)

module Challenge = Rc_challenge.Challenge
module Problem = Rc_core.Problem
module Pool = Rc_engine.Pool
module Seed = Rc_engine.Seed

type scale = Full | Toy

let sub_seed seed i = Seed.to_int (Seed.split (Seed.of_int seed) i)

(* [Array.init] over a short-lived pool of every core, for work that is
   pure per index (instance generation, expected answers); it never runs
   while a server is being timed. *)
let par_init n f =
  Pool.with_pool ~domains:(Pool.recommended_domains ()) (fun pool ->
      Pool.run pool ~tasks:n f)

let shapes = Array.of_list Challenge.presets

let ssa ~seed ~shape i =
  (Challenge.generate ~seed:(sub_seed seed i) ~config:(snd shapes.(shape)) ~k:6
     ())
    .problem

(* serve-hit: function-sized SSA instances of all five preset shapes,
   plus a few large interval instances standing in for the largest
   functions.  The hit path costs about its frame size, so the median
   round trip follows the corpus's median instance: 240 of them keep
   that within ~10% between seeds.  The large sizes are fixed, not
   drawn, so the tail lands on the same decode-and-hash work under
   every seed. *)
let large_sizes = function
  | Full -> [| 1_000; 3_000; 10_000; 10_000 |]
  | Toy -> [| 300 |]

let small_per_shape = function Full -> 48 | Toy -> 2

let hit_corpus ~seed scale =
  let small = small_per_shape scale * Array.length shapes in
  let large = large_sizes scale in
  par_init
    (small + Array.length large)
    (fun i ->
      if i < small then ssa ~seed ~shape:(i mod Array.length shapes) i
      else
        (Challenge.synthetic ~seed:(sub_seed seed i)
           ~n:large.(i - small) ~maxlive:12 ())
          .problem)

(* serve-miss: fresh single-region variants of the five shapes (a few
   dozen vertices).  Small instances keep a run at well over a thousand
   instances, which is what averages out chordal-incremental's heavy
   per-instance cost tail.  The root seed differs from serve-hit's. *)
let miss_shapes =
  Array.map
    (fun (name, (c : Rc_ir.Randprog.config)) -> (name, { c with regions = 1 }))
    shapes

let miss_batch ~seed ~first ~count =
  par_init count (fun j ->
      let i = first + j in
      (Challenge.generate
         ~seed:(sub_seed (seed + 1) i)
         ~config:(snd miss_shapes.(i mod Array.length miss_shapes))
         ~k:6 ())
        .problem)

(* sweep-10k: the shipped 10k preset for the heuristics, and a
   clustered-only preset (500 x 20-vertex gadgets) for exact:race. *)
let sweep_presets = function
  | Full ->
      let p10k =
        match Rc_engine.Sweep.preset_of_string "10k" with
        | Ok p -> p
        | Error m -> failwith m
      in
      ( p10k,
        {
          Rc_engine.Sweep.sname = "clustered-10k";
          sources =
            [
              Clustered
                { gadgets = 500; size = 20; maxlive = 4; affinity_fraction = 0.3 };
            ];
        } )
  | Toy ->
      ( {
          Rc_engine.Sweep.sname = "toy";
          sources =
            [ Synthetic { n = 2_000; maxlive = 8; affinity_fraction = 0.3 } ];
        },
        {
          Rc_engine.Sweep.sname = "clustered-toy";
          sources =
            [
              Clustered
                { gadgets = 100; size = 20; maxlive = 4; affinity_fraction = 0.3 };
            ];
        } )
