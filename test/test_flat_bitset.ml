(* Representation-differential lockdown of the adaptive Flat kernel.

   PR 4 split Flat's adjacency into per-row representations — sparse
   int rows, bitset rows and in-place promotion between them.  Every
   mode must describe the same graph under every operation sequence:
   this suite replays seeded random mutation scripts (add/remove/merge/
   remove_vertex under nested checkpoint/rollback/release) through one
   kernel per mode in lockstep and demands they stay [Graph.equal]
   throughout, checks the word-parallel set views against a naive
   oracle, pins the promotion policy down, and verifies the checking
   layers (Fault injection, sanitizer audits) cover the bitset path.

   Instances come from the shared generator layer (test/qcheck_gen.ml);
   every property prints its "[seeds] <name> <ran> <declared>" audit
   line for CI. *)

module G = Rc_graph.Graph
module Flat = Rc_graph.Flat
module Sanitize = Rc_check.Sanitize

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let () =
  if Sanitize.install_if_enabled () then
    print_endline "test_flat_bitset: kernel sanitizer enabled"

(* Every row form under test, as a promotion degree ([None] = the
   kernel's default).  Int rows only ([max_int], no promotion) are the
   baseline the other forms are differenced against; promoting at 2
   makes promotions happen mid-script on almost every row, exercising
   the sparse->dense transition inside speculation scopes. *)
let reprs =
  [
    ("sparse-rows", Some max_int);
    ("auto", None);
    ("bitset-rows", Some 0);
    ("promote-at-2", Some 2);
  ]

let cls_of seed =
  match seed mod 4 with
  | 0 -> Qcheck_gen.Chordal
  | 1 -> Qcheck_gen.Gnp
  | 2 -> Qcheck_gen.Interval
  | _ -> Qcheck_gen.K_colorable

(* ------------------------------------------------------------------ *)
(* Word helpers                                                        *)
(* ------------------------------------------------------------------ *)

let test_bits () =
  check_int "word_bits" 32 Flat.Bits.word_bits;
  let naive_pop w =
    let c = ref 0 in
    for i = 0 to 31 do
      if w land (1 lsl i) <> 0 then incr c
    done;
    !c
  in
  for i = 0 to 31 do
    check_int (Printf.sprintf "lsb of bit %d" i) i (Flat.Bits.lsb (1 lsl i));
    check_int (Printf.sprintf "popcount of bit %d" i) 1
      (Flat.Bits.popcount (1 lsl i))
  done;
  check_int "popcount 0" 0 (Flat.Bits.popcount 0);
  check_int "popcount all-ones" 32 (Flat.Bits.popcount 0xFFFFFFFF);
  let rng = Random.State.make [| 0xB17 |] in
  for _ = 1 to 1000 do
    let w =
      Random.State.bits rng lor ((Random.State.bits rng land 3) lsl 30)
    in
    check_int "popcount vs naive" (naive_pop w) (Flat.Bits.popcount w);
    if w <> 0 then begin
      let rec low i = if w land (1 lsl i) <> 0 then i else low (i + 1) in
      check_int "lsb vs naive" (low 0) (Flat.Bits.lsb w)
    end
  done

(* ------------------------------------------------------------------ *)
(* Representation differential                                         *)
(* ------------------------------------------------------------------ *)

(* One seeded script: snapshot the same base graph into one kernel per
   row mode, drive all of them through an identical randomized mutation
   sequence (decisions are made by querying the first kernel — valid
   precisely because the kernels agree, which is the property under
   test), and periodically assert full structural agreement. *)
let replay_script seed =
  let rng = Random.State.make [| seed; 0xB175 |] in
  let n = 8 + Random.State.int rng 25 in
  let density = 0.15 +. Random.State.float rng 0.5 in
  let base = Qcheck_gen.graph_of_cls rng (cls_of seed) ~n ~density in
  let ks =
    List.map
      (fun (name, promote_at) -> (name, Flat.of_graph ?promote_at base, ref []))
      reprs
  in
  let _, k0, _ = List.hd ks in
  let cap = Flat.capacity k0 in
  let each f = List.iter (fun (_, k, _) -> f k) ks in
  let assert_agreement step =
    let g0 = Flat.to_graph k0 in
    List.iter
      (fun (name, k, _) ->
        Flat.check_invariants k;
        check_int
          (Printf.sprintf "num_edges %s (seed %d step %d)" name seed step)
          (Flat.num_edges k0) (Flat.num_edges k);
        check_int
          (Printf.sprintf "num_live %s (seed %d step %d)" name seed step)
          (Flat.num_live k0) (Flat.num_live k);
        if not (G.equal (Flat.to_graph k) g0) then
          Alcotest.failf "seed %d step %d: %s diverges from the %s baseline"
            seed step name
            (fst (List.hd reprs)))
      (List.tl ks)
  in
  let depth = ref 0 in
  let steps = 4 * cap in
  for step = 1 to steps do
    let u = Random.State.int rng cap and v = Random.State.int rng cap in
    (match Random.State.int rng 13 with
    | 0 | 1 | 2 | 3 ->
        if u <> v && Flat.is_live k0 u && Flat.is_live k0 v then
          each (fun k -> Flat.add_edge k u v)
    | 4 | 5 ->
        if u <> v && Flat.is_live k0 u && Flat.is_live k0 v then
          each (fun k -> Flat.remove_edge k u v)
    | 6 -> if Flat.num_live k0 > 4 then each (fun k -> Flat.remove_vertex k u)
    | 7 | 8 ->
        if
          u <> v
          && Flat.is_live k0 u
          && Flat.is_live k0 v
          && not (Flat.mem_edge k0 u v)
          && Flat.num_live k0 > 4
        then each (fun k -> Flat.merge k u v)
    | 9 | 10 ->
        if !depth < 5 then begin
          List.iter (fun (_, k, cps) -> cps := Flat.checkpoint k :: !cps) ks;
          incr depth
        end
    | 11 ->
        if !depth > 0 then begin
          List.iter
            (fun (_, k, cps) ->
              match !cps with
              | c :: rest ->
                  Flat.rollback k c;
                  cps := rest
              | [] -> assert false)
            ks;
          decr depth
        end
    | _ ->
        if !depth > 0 then begin
          List.iter
            (fun (_, k, cps) ->
              match !cps with
              | c :: rest ->
                  Flat.release k c;
                  cps := rest
              | [] -> assert false)
            ks;
          decr depth
        end);
    if step mod 8 = 0 then assert_agreement step
  done;
  (* Unwind whatever speculation scopes are still open — mixing
     rollbacks and releases, decided once per level so every kernel
     takes the same action. *)
  while !depth > 0 do
    let roll = Random.State.bool rng in
    List.iter
      (fun (_, k, cps) ->
        match !cps with
        | c :: rest ->
            if roll then Flat.rollback k c else Flat.release k c;
            cps := rest
        | [] -> assert false)
      ks;
    decr depth
  done;
  assert_agreement (steps + 1);
  List.iter
    (fun (name, k, _) ->
      check_int (Printf.sprintf "%s log drained (seed %d)" name seed) 0
        (Flat.log_length k);
      check_int (Printf.sprintf "%s depth balanced (seed %d)" name seed) 0
        (Flat.checkpoint_depth k))
    ks

let test_repr_differential () =
  Qcheck_gen.run_seeds ~name:"flat_repr_differential" ~count:200 replay_script

(* ------------------------------------------------------------------ *)
(* Word-parallel set views vs a naive oracle                           *)
(* ------------------------------------------------------------------ *)

let sorted_collect iter =
  let acc = ref [] in
  iter (fun x -> acc := x :: !acc);
  List.sort compare !acc

let test_word_ops () =
  Qcheck_gen.run_seeds ~name:"flat_word_ops" ~count:100 (fun seed ->
      let rng = Random.State.make [| seed; 0x0B5E |] in
      let n = 10 + Random.State.int rng 40 in
      let density = 0.1 +. Random.State.float rng 0.6 in
      let base = Qcheck_gen.graph_of_cls rng (cls_of seed) ~n ~density in
      List.iter
        (fun (name, promote_at) ->
          let f = Flat.of_graph ?promote_at base in
          let cap = Flat.capacity f in
          for _ = 1 to 20 do
            let u = Random.State.int rng cap
            and v = Random.State.int rng cap in
            let nu = List.sort compare (Flat.neighbor_list f u)
            and nv = List.sort compare (Flat.neighbor_list f v) in
            let diff = List.filter (fun w -> not (List.mem w nv)) nu in
            let common = List.filter (fun w -> List.mem w nv) nu in
            check
              (Printf.sprintf "%s iter_diff (seed %d)" name seed)
              true
              (sorted_collect (Flat.iter_diff f u v) = diff);
            check
              (Printf.sprintf "%s iter_common (seed %d)" name seed)
              true
              (sorted_collect (Flat.iter_common f u v) = common);
            check_int
              (Printf.sprintf "%s count_common (seed %d)" name seed)
              (List.length common) (Flat.count_common f u v)
          done)
        reprs)

(* ------------------------------------------------------------------ *)
(* Promotion policy                                                    *)
(* ------------------------------------------------------------------ *)

let test_promotion () =
  (* cap = 16: one word per row, so the default promotion degree is
     max 4 1 = 4. *)
  let f = Flat.create 16 in
  check "fresh row sparse" true (not (Flat.row_is_dense f 0));
  check_int "no dense rows yet" 0 (Flat.dense_rows f);
  Flat.add_edge f 0 1;
  Flat.add_edge f 0 2;
  Flat.add_edge f 0 3;
  check "below threshold stays sparse" true (not (Flat.row_is_dense f 0));
  Flat.add_edge f 0 4;
  check "promoted at threshold" true (Flat.row_is_dense f 0);
  check_int "degree preserved across promotion" 4 (Flat.degree f 0);
  check "membership preserved across promotion" true
    (Flat.mem_edge f 0 1 && Flat.mem_edge f 0 2 && Flat.mem_edge f 0 3
   && Flat.mem_edge f 0 4);
  check "promotion is per-row" true (not (Flat.row_is_dense f 1));
  Flat.check_invariants f;
  (* Promotion inside a speculation scope: rollback restores the edge
     content exactly but never demotes the row. *)
  let g = Flat.create 16 in
  let c = Flat.checkpoint g in
  for v = 1 to 6 do
    Flat.add_edge g 0 v
  done;
  check "promoted inside scope" true (Flat.row_is_dense g 0);
  Flat.rollback g c;
  check "rollback keeps the row dense" true (Flat.row_is_dense g 0);
  check_int "rollback restored the degree" 0 (Flat.degree g 0);
  Flat.check_invariants g;
  Flat.add_edge g 0 5;
  check "dense row still functional after rollback" true (Flat.mem_edge g 0 5);
  Flat.check_invariants g;
  (* Explicit promotion degrees at the two extremes. *)
  let b = Flat.create ~promote_at:0 8 in
  check "bitset-rows born dense" true (Flat.row_is_dense b 0);
  check_int "every row dense" 8 (Flat.dense_rows b);
  let s = Flat.create ~promote_at:max_int 8 in
  for v = 1 to 7 do
    Flat.add_edge s 0 v
  done;
  check "sparse-rows never promote" true (not (Flat.row_is_dense s 0));
  check_int "sparse mode has no dense rows" 0 (Flat.dense_rows s);
  Flat.check_invariants s;
  (* of_graph pre-sizes: a clique past the threshold is born dense. *)
  let q = Flat.of_graph (G.clique 6) in
  check "of_graph promotes eagerly" true (Flat.row_is_dense q 0);
  Flat.check_invariants q;
  match Flat.create ~promote_at:(-1) 8 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "a negative promotion degree was accepted"

(* Labels spanning more than [max_int]: [hi - lo] wraps negative, so
   the label index must fall back to hashing instead of sizing a
   direct map from the wrapped span. *)
let test_wide_labels () =
  let lo = min_int and hi = max_int in
  let g = G.of_edges [ (lo, 0); (0, hi) ] in
  let f = Flat.of_graph g in
  Flat.check_invariants f;
  check "round trip through to_graph" true (G.equal g (Flat.to_graph f));
  check_int "index of the largest label" 2 (Flat.index f hi);
  let p = Rc_core.Problem.make ~graph:g ~affinities:[ ((lo, hi), 3) ] ~k:2 in
  List.iter
    (fun s ->
      let sol = Rc_core.Strategies.run s p in
      check_int
        (Rc_core.Strategies.name s ^ " coalesces the affinity")
        3
        (Rc_core.Coalescing.coalesced_weight sol))
    Rc_core.Strategies.all_heuristics

(* ------------------------------------------------------------------ *)
(* Nested checkpoint stress                                            *)
(* ------------------------------------------------------------------ *)

(* Thirty-deep nesting with mutations at every level, then a full
   unwind: the kernel must land exactly back on the pristine graph with
   a drained log, in every row mode. *)
let nested_stress promote_at seed =
  let rng = Random.State.make [| seed; 0xD0E5 |] in
  let base = Qcheck_gen.graph_of_cls rng Qcheck_gen.Gnp ~n:24 ~density:0.3 in
  let f = Flat.of_graph ?promote_at base in
  let pristine = Flat.to_graph f in
  let cap = Flat.capacity f in
  let rec dive d =
    let c = Flat.checkpoint f in
    for _ = 1 to 6 do
      let u = Random.State.int rng cap and v = Random.State.int rng cap in
      if u <> v && Flat.is_live f u && Flat.is_live f v then
        if Flat.mem_edge f u v then begin
          if Random.State.bool rng then Flat.remove_edge f u v
        end
        else if Random.State.int rng 3 = 0 && Flat.num_live f > 4 then
          Flat.merge f u v
        else Flat.add_edge f u v
    done;
    if d < 30 then dive (d + 1);
    Flat.rollback f c
  in
  dive 0;
  Flat.check_invariants f;
  check_int "depth balanced" 0 (Flat.checkpoint_depth f);
  check_int "log drained" 0 (Flat.log_length f);
  check
    (Printf.sprintf "unwound to pristine (seed %d)" seed)
    true
    (G.equal pristine (Flat.to_graph f))

let test_nested_stress () =
  Qcheck_gen.run_seeds ~name:"flat_nested_stress" ~count:40 (fun seed ->
      List.iter (fun (_, promote_at) -> nested_stress promote_at seed) reprs)

(* ------------------------------------------------------------------ *)
(* Checking layers over the bitset path                                *)
(* ------------------------------------------------------------------ *)

let expect_failure name f =
  match f () with
  | exception Failure _ -> ()
  | _ -> Alcotest.failf "%s: corruption not caught" name

let test_fault_bitset () =
  let mk () = Flat.of_graph ~promote_at:0 (G.clique 6) in
  (* Burst corruption: a whole flipped word drifts the popcount away
     from the cached degree and plants phantom past-capacity bits. *)
  let f = mk () in
  Flat.Fault.smash_row_word f 0 0;
  expect_failure "smash_row_word vs check_vertex" (fun () ->
      Flat.check_vertex f 0);
  let f = mk () in
  Flat.Fault.smash_row_word f 2 0;
  expect_failure "smash_row_word vs check_invariants" (fun () ->
      Flat.check_invariants f);
  (* Single dropped bit: degree says 5, popcount says 4. *)
  let f = mk () in
  Flat.Fault.drop_bit f 0 1;
  expect_failure "dense drop_bit" (fun () -> Flat.check_vertex f 0);
  (* Asymmetry: u's word row forgets v while v's still claims u. *)
  let f = mk () in
  Flat.Fault.drop_adjacency f 0 1;
  expect_failure "dense drop_adjacency" (fun () -> Flat.check_invariants f);
  (* Misuse guard: word smashing is only defined on dense rows. *)
  let s = Flat.of_graph ~promote_at:max_int (G.clique 3) in
  match Flat.Fault.smash_row_word s 0 0 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "smash_row_word accepted a sparse row"

let with_sanitizer f =
  Sanitize.install ();
  Fun.protect f ~finally:(fun () ->
      Sanitize.uninstall ();
      ignore (Sanitize.install_if_enabled ()))

(* The sanitizer's rotating vertex cursor must actually land on bitset
   rows — otherwise the word/list-agreement and popcount-vs-degree
   checks of check_vertex never run and the dense path is unaudited. *)
let test_sanitizer_dense_audit () =
  with_sanitizer (fun () ->
      let before_dense = Sanitize.dense_rows_audited () in
      let before_sparse = Sanitize.sparse_rows_audited () in
      let f = Flat.of_graph ~promote_at:0 (G.clique 12) in
      for _ = 1 to 40 do
        let c = Flat.checkpoint f in
        Flat.remove_edge f 0 1;
        Flat.add_edge f 0 1;
        Flat.rollback f c
      done;
      check "dense rows audited" true
        (Sanitize.dense_rows_audited () > before_dense);
      let s = Flat.of_graph ~promote_at:max_int (G.path 12) in
      for _ = 1 to 40 do
        let c = Flat.checkpoint s in
        Flat.add_edge s 0 5;
        Flat.rollback s c
      done;
      check "sparse rows audited" true
        (Sanitize.sparse_rows_audited () > before_sparse))

let () =
  Alcotest.run "rc_flat_bitset"
    [
      ("bits", [ Alcotest.test_case "word helpers vs naive" `Quick test_bits ]);
      ( "representation",
        [
          Alcotest.test_case "differential: all row modes agree (200 seeds)"
            `Quick test_repr_differential;
          Alcotest.test_case "word set-ops vs naive oracle (100 seeds)" `Quick
            test_word_ops;
          Alcotest.test_case "promotion policy" `Quick test_promotion;
          Alcotest.test_case "nested checkpoint stress (40 seeds)" `Quick
            test_nested_stress;
          Alcotest.test_case "labels spanning more than max_int" `Quick
            test_wide_labels;
        ] );
      ( "checking",
        [
          Alcotest.test_case "bitset fault injections are caught" `Quick
            test_fault_bitset;
          Alcotest.test_case "sanitizer audits dense rows" `Quick
            test_sanitizer_dense_audit;
        ] );
    ]
