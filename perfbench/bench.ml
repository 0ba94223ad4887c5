(* Benchmark entry point: one run of one workload, printing one JSON result
   line.

   bench.exe --workload frontend|search|certified|serve --seed N
             --seconds S --trace 0|1 --sufdec PATH --out DIR

   Untraced (--trace 0) runs report the end-to-end metrics; traced runs
   (--trace 1) replay each layer's public calls from here and report the
   per-layer metrics, writing their spans to DIR. *)

let per_layer =
  [
    ("suf.parse_ms", "ms"); ("suf.parse_mb_per_s", "MB/s");
    ("suf.digest_ms", "ms"); ("suf.elim_ms", "ms");
    ("encode.ms", "ms"); ("encode.bool_size", "count");
    ("encode.eij_predicates", "count"); ("encode.trans_constraints", "count");
    ("encode.sd_classes", "count"); ("encode.eij_classes", "count");
    ("encode.blowups", "count");
    ("cnf.ms", "ms"); ("cnf.clauses", "count"); ("cnf.clauses_per_s", "1/s");
    ("sat.ms", "ms"); ("sat.conflicts", "count"); ("sat.decisions", "count");
    ("sat.propagations", "count"); ("sat.props_per_s", "1/s");
    ("check.drup_ms", "ms"); ("check.proof_steps", "count");
    ("check.drup_steps_per_s", "1/s"); ("check.witness_ms", "ms");
    ("check.drup_over_sat", "ratio");
    ("decide.unattributed_ms", "ms"); ("decide.unattributed_share", "ratio");
    ("profile.encode_cnf_share", "ratio"); ("profile.sat_share", "ratio");
    ("profile.drup_share", "ratio");
    ("serve.requests", "count"); ("serve.beyond_p99", "count");
    ("serve.rtt_ms.p50", "ms"); ("serve.rtt_ms.p99", "ms");
    ("serve.engine_ms.p50", "ms"); ("serve.wire_ms.p50", "ms");
    ("serve.queue_ms.p50", "ms"); ("serve.queue_ms.p99", "ms");
    ("serve.solve_ms.p50", "ms"); ("serve.hit_ratio", "ratio");
    ("serve.busy", "count"); ("serve.codec_us", "us");
    ("trace.overhead", "ratio");
  ]

(* Every per-layer metric, in a fixed order; a layer a workload does not
   exercise reads 0. *)
let complete measured =
  List.map
    (fun (name, unit) ->
      match List.find_opt (fun (n, _, _) -> n = name) measured with
      | Some m -> m
      | None -> (name, unit, 0.))
    per_layer

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20.
  and trace = ref 0 and sufdec = ref "" and out = ref ".bench_out" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--sufdec", Arg.Set_string sufdec, "PATH to sufdec.exe (serve)");
      ("--out", Arg.Set_string out, "DIR for spans and server sockets");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --seconds S --trace 0|1";
  if not (Sys.file_exists !out) then Unix.mkdir !out 0o755;
  let seed = !seed and seconds = !seconds in
  let offline ~passes items =
    if !trace = 0 then Offline.run ~passes ~seconds items
    else Offline.traced items
  in
  (* Passes per untraced offline run, fixed so a run does the same work
     whatever its speed: 20-45 s each on a 2-core x86-64 VM. *)
  let tally, metrics =
    match !workload with
    | "frontend" -> offline ~passes:3 (Inputs.frontend ~seed)
    | "search" -> offline ~passes:4 (Inputs.search ~seed)
    | "certified" -> offline ~passes:3 (Inputs.certified ~seed)
    | "serve" ->
      if !sufdec = "" then failwith "--sufdec is required for serve";
      if !trace = 0 then Serve_load.run ~sufdec:!sufdec ~out:!out ~seconds ~seed
      else Serve_load.traced ~sufdec:!sufdec ~out:!out ~seed
    | w -> failwith ("unknown workload " ^ w)
  in
  let metrics = if !trace = 0 then metrics else complete metrics in
  if !trace <> 0 then
    Report.Spans.write
      (Filename.concat !out
         (Printf.sprintf "spans-%s-%d.jsonl" !workload seed));
  Report.print_result tally metrics
