(* perfbench: the repository benchmark's load generator.

     perfbench.exe --workload serve-hit|serve-miss|sweep-10k --seed N
       --seconds S --trace 0|1 --coalesce PATH --workdir DIR
       [--clk-tck HZ] [--scale full|toy] [--corrupt I]

   Prints metric and self-check lines, then one JSON result line:
   {"correct", "attempted", "failed", "metrics"}.  --trace 0 measures
   the end-to-end metrics; --trace 1 is the separate traced run that
   reports the per-layer metrics and writes its spans to
   DIR/trace-<workload>-<seed>.jsonl.  --corrupt I damages the I-th
   answer on purpose (the self-test's proof that the output check
   counts it).  Exit 1 when the result is not correct. *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and coalesce = ref "" and dir = ref "."
  and scale = ref "full" and corrupt = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--coalesce", Arg.Set_string coalesce, "PATH to coalesce_cli.exe");
      ("--workdir", Arg.Set_string dir, "DIR for sockets, logs and spans");
      ("--clk-tck", Arg.Float (fun f -> Proc.clk_tck := f), "HZ");
      ("--scale", Arg.Set_string scale, "full|toy");
      ("--corrupt", Arg.Set_int corrupt, "I");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --coalesce PATH";
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  (* Exit through at_exit, which stops the servers this run started. *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 2));
  let scale =
    match !scale with
    | "toy" -> Corpus.Toy
    | "full" -> Corpus.Full
    | s -> failwith ("unknown scale " ^ s)
  in
  let seed = !seed and seconds = !seconds and coalesce = !coalesce
  and dir = !dir and corrupt = !corrupt in
  let trace_file =
    Filename.concat dir (Printf.sprintf "trace-%s-%d.jsonl" !workload seed)
  in
  let serve kind =
    if !trace = 1 then
      Serve_wl.traced ~kind ~seed ~seconds ~scale ~coalesce ~dir ~trace_file
    else Serve_wl.run ~kind ~seed ~seconds ~scale ~coalesce ~dir ~corrupt
  in
  let attempted, failed =
    match !workload with
    | "serve-hit" -> serve Serve_wl.Hit
    | "serve-miss" -> serve Serve_wl.Miss
    | "sweep-10k" ->
        if !trace = 1 then Sweep_wl.traced ~seed ~scale ~trace_file
        else Sweep_wl.run ~seed ~seconds ~scale ~corrupt
    | w -> failwith ("unknown workload " ^ w)
  in
  if not (Out.result ~attempted ~failed) then exit 1
