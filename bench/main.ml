(* Benchmark driver: regenerates every table and figure of the paper's
   evaluation section (Figures 2-6 plus the SEP_THOLD selection of 4.1).

   Usage:
     main.exe                 all figures (default 30s/run deadline)
     main.exe --figure 4      one artifact
     main.exe --deadline 30   per-run CPU budget in seconds
     main.exe --json OUT.json write every recorded run as JSON
     main.exe --strict        exit 1 if any run ended Unknown
     main.exe --repeat 3      run the selected figure(s) K times (min-of-k)
     main.exe --no-simplify   turn off SAT pre/inprocessing (A/B the simplifier)
     main.exe --baseline-out B.json   record a perf baseline
     main.exe --compare B.json        diff against a baseline; exit 4 on a
                                      noise/drift-adjusted regression
     main.exe --compare-current C.json  compare a saved report instead of
                                        running anything                  *)

module Experiments = Sepsat_harness.Experiments
module Runner = Sepsat_harness.Runner
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Flight = Sepsat_obs.Flight

let deadline_s = ref 30.

let figure = ref "all"

let json_path = ref ""

let strict = ref false

let trace_path = ref ""

let stats = ref false

let log_level = ref "quiet"

let repeat = ref 1

let no_simplify = ref false

let flight = ref false

let baseline_out = ref ""

let compare_path = ref ""

let compare_current = ref ""

let compare_rel = ref 0.25

let compare_abs = ref 0.05

let usage =
  "main.exe [--figure 2|3|threshold|4|5|6|hybrid|ablation|all] [--deadline S] \
   [--json PATH] [--strict] [--trace PATH] [--stats] \
   [--log-level quiet|info|debug] [--repeat K] [--flight] [--baseline-out PATH] \
   [--compare PATH] [--compare-rel R] [--compare-abs S] \
   [--compare-current PATH]"

let spec =
  [
    ("--figure", Arg.Set_string figure, " which artifact to regenerate");
    ("--deadline", Arg.Set_float deadline_s, " per-run CPU budget (s)");
    ( "--json",
      Arg.Set_string json_path,
      " write every recorded run to PATH (schema-2 report object)" );
    ( "--strict",
      Arg.Set strict,
      " exit 1 if any recorded run ended with an Unknown verdict" );
    ( "--trace",
      Arg.Set_string trace_path,
      " write a Chrome trace_event JSON timeline to PATH" );
    ("--stats", Arg.Set stats, " print span rollup and metrics tables at exit");
    ("--log-level", Arg.Set_string log_level, " quiet (default), info or debug");
    ( "--no-simplify",
      Arg.Set no_simplify,
      " disable the SAT core's pre/inprocessing for every run" );
    ( "--flight",
      Arg.Set flight,
      " turn the event store on at a server's capacity (4096) for every run \
       — the perf gate uses this to price always-on recording" );
    ( "--repeat",
      Arg.Set_int repeat,
      " run the selected figure(s) K times; baselines keep the min" );
    ( "--baseline-out",
      Arg.Set_string baseline_out,
      " write a perf baseline (min-of-k per bench/method) to PATH" );
    ( "--compare",
      Arg.Set_string compare_path,
      " compare against the baseline at PATH; exit 4 on regression" );
    ( "--compare-rel",
      Arg.Set_float compare_rel,
      " relative regression threshold after drift adjustment (default 0.25)" );
    ( "--compare-abs",
      Arg.Set_float compare_abs,
      " absolute regression threshold in seconds (default 0.05)" );
    ( "--compare-current",
      Arg.Set_string compare_current,
      " with --compare: read the current run from a saved report at PATH \
       instead of benchmarking" );
  ]

let () =
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad a)) usage;
  (match Obs.level_of_string !log_level with
  | Some l -> Obs.set_level l
  | None -> raise (Arg.Bad ("unknown log level: " ^ !log_level)));
  if !trace_path <> "" || !stats || Obs.get_level () <> Obs.Quiet then
    Obs.enable ()
  else if !flight then Obs.enable ~capacity:4096 ();
  if !no_simplify then Decide.set_simplify_default false;
  let ppf = Format.std_formatter in
  let d = !deadline_s in
  Runner.reset_recorded ();
  let run_figures () =
    match !figure with
    | "2" -> Experiments.figure2 ~deadline_s:d ppf
    | "3" -> Experiments.figure3 ~deadline_s:d ppf
    | "threshold" -> ignore (Experiments.threshold_selection ~deadline_s:d ppf)
    | "4" -> Experiments.figure4 ~deadline_s:d ppf
    | "5" -> Experiments.figure5 ~deadline_s:d ppf
    | "6" -> Experiments.figure6 ~deadline_s:d ppf
    | "hybrid" -> Experiments.figure_hybrid ~deadline_s:d ppf
    | "ablation" -> Experiments.ablation_threshold ~deadline_s:d ppf
    | "all" -> Experiments.all ~deadline_s:d ppf
    | other -> raise (Arg.Bad ("unknown figure: " ^ other))
  in
  (* With a saved current report there is nothing to benchmark: the compare
     step below judges file against file (CI uses this for the synthetic
     regression self-check). *)
  let offline = !compare_current <> "" && !compare_path <> "" in
  if not offline then
    for _ = 1 to max 1 !repeat do
      run_figures ()
    done;
  let rows = Runner.recorded_rows () in
  if !json_path <> "" then begin
    Runner.write_json !json_path rows;
    Format.fprintf ppf "wrote %d rows to %s@." (List.length rows) !json_path
  end;
  if !baseline_out <> "" then begin
    let entries = Sepsat_harness.Baseline.of_rows rows in
    Sepsat_harness.Baseline.write !baseline_out entries;
    Format.fprintf ppf "wrote %d baseline entries to %s@."
      (List.length entries) !baseline_out
  end;
  if !trace_path <> "" then begin
    Flight.write_trace !trace_path;
    Format.fprintf ppf "wrote trace to %s@." !trace_path
  end;
  if !stats then begin
    Format.fprintf ppf "%a" Obs.pp_summary (Obs.records ());
    Format.fprintf ppf "%a" Metrics.pp ()
  end;
  if !strict then begin
    let unknowns =
      List.filter
        (fun (r : Runner.row) ->
          match r.Runner.verdict with
          | Verdict.Unknown _ -> true
          | Verdict.Valid | Verdict.Invalid _ -> false)
        rows
    in
    if unknowns <> [] then begin
      List.iter
        (fun (r : Runner.row) ->
          Format.fprintf ppf "strict: %s/%a ended Unknown@." r.Runner.bench
            Decide.pp_method r.Runner.method_)
        unknowns;
      exit 1
    end
  end;
  if !compare_path <> "" then begin
    let module Baseline = Sepsat_harness.Baseline in
    let read_or_die path =
      match Baseline.read path with
      | Ok entries -> entries
      | Error msg ->
        Format.eprintf "compare: %s@." msg;
        exit 2
    in
    let baseline = read_or_die !compare_path in
    let current =
      if offline then read_or_die !compare_current
      else Baseline.of_rows rows
    in
    let c =
      Baseline.compare_ ~rel:!compare_rel ~abs_s:!compare_abs ~baseline
        current
    in
    Format.fprintf ppf "%a" Baseline.pp c;
    if Baseline.regressed c then exit 4
  end
