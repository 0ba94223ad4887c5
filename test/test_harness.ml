(* Tests for the experiment harness: clustering, the runner, and the ASCII
   plotter. *)

module Cluster = Sepsat_harness.Cluster
module Runner = Sepsat_harness.Runner
module Ascii_plot = Sepsat_harness.Ascii_plot
module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict

let test_variance () =
  Alcotest.(check (float 1e-9)) "empty" 0. (Cluster.variance [||]);
  Alcotest.(check (float 1e-9)) "singleton" 0. (Cluster.variance [| 5. |]);
  Alcotest.(check (float 1e-9)) "pair" 1. (Cluster.variance [| 1.; 3. |]);
  Alcotest.(check (float 1e-9)) "uniform" 0. (Cluster.variance [| 2.; 2.; 2. |])

let test_best_split () =
  (* two obvious clusters: {1,2,3} and {100,101} *)
  Alcotest.(check int) "split at 3" 3
    (Cluster.best_split [| 1.; 2.; 3.; 100.; 101. |]);
  Alcotest.(check int) "split pair" 1 (Cluster.best_split [| 0.; 10. |]);
  Alcotest.(check bool) "too small rejected" true
    (match Cluster.best_split [| 1. |] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The returned split minimizes the cost over all splits. *)
let prop_best_split_minimal =
  QCheck2.Test.make ~name:"best split is minimal" ~count:300
    QCheck2.Gen.(list_size (int_range 2 12) (float_bound_inclusive 100.))
    (fun values ->
      let a = Array.of_list (List.sort compare values) in
      let cost k =
        Cluster.variance (Array.sub a 0 k)
        +. Cluster.variance (Array.sub a k (Array.length a - k))
      in
      let k = Cluster.best_split a in
      let ok = ref true in
      for j = 1 to Array.length a - 1 do
        if cost j < cost k -. 1e-9 then ok := false
      done;
      !ok)

let test_select_threshold () =
  (* run-times cluster into {fast} and {slow}; the threshold is the smallest
     multiple of 100 above the last fast sample's predicate count *)
  let samples =
    [ (50, 0.1); (120, 0.2); (640, 0.3); (800, 50.); (2000, 60.) ]
  in
  Alcotest.(check int) "rounded up" 700 (Cluster.select_threshold samples);
  let samples2 = [ (100, 0.1); (700, 0.2); (50, 30.); (20, 40.) ] in
  Alcotest.(check int) "multiple of 100 strictly above" 800
    (Cluster.select_threshold samples2)

(* The threshold is always a positive multiple of 100 strictly above the
   split point's predicate count. *)
let prop_threshold_shape =
  QCheck2.Test.make ~name:"threshold is a multiple of 100" ~count:200
    QCheck2.Gen.(
      list_size (int_range 2 16)
        (pair (int_bound 5000) (float_bound_inclusive 100.)))
    (fun samples ->
      let t = Cluster.select_threshold samples in
      let max_count = List.fold_left (fun acc (n, _) -> max acc n) 0 samples in
      t > 0 && t mod 100 = 0 && t <= max_count + 100)

(* The plotter accepts any point soup without raising. *)
let prop_plot_total =
  QCheck2.Test.make ~name:"ascii plot never raises" ~count:200
    QCheck2.Gen.(
      list_size (int_bound 30)
        (pair (float_range (-10.) 1000.) (float_range (-10.) 1000.)))
    (fun points ->
      let series = [ { Ascii_plot.label = "s"; glyph = '*'; points } ] in
      let out =
        Format.asprintf "%a"
          (fun ppf () ->
            Ascii_plot.scatter ~diagonal:true ~xlabel:"x" ~ylabel:"y" ppf
              series)
          ()
      in
      String.length out > 0)

let test_runner () =
  match Suite.find "drv.1" with
  | None -> Alcotest.fail "drv.1 missing"
  | Some bench ->
    let row = Runner.run ~deadline_s:20. Decide.Hybrid_default bench in
    Alcotest.(check string) "name" "drv.1" row.Runner.bench;
    Alcotest.(check string) "family" "device-driver" row.Runner.family;
    Alcotest.(check bool) "completed" true (row.Runner.outcome = Runner.Completed);
    Alcotest.(check bool) "valid" true (row.Runner.verdict = Verdict.Valid);
    Alcotest.(check bool) "size positive" true (row.Runner.size > 0);
    Alcotest.(check bool) "sep counted" true (row.Runner.sep_cnt > 0);
    Alcotest.(check (float 1e-9)) "penalized = total"
      row.Runner.total_time
      (Runner.penalized_time ~deadline_s:20. row)

let test_runner_timeout_penalty () =
  let row =
    {
      Runner.bench = "x";
      family = "f";
      invariant_checking = false;
      method_ = Decide.Sd;
      size = 500;
      sep_cnt = 1;
      verdict = Verdict.Unknown "timeout";
      outcome = Runner.Timed_out;
      total_time = 3.;
      wall_time = 3.;
      translate_time = 1.;
      sat_time = 2.;
      cnf_clauses = 0;
      conflicts = 0;
      decisions = 0;
      propagations = 0;
      trans_constraints = 0;
      phase_times = [ ("elim", 1.); ("sat", 2.) ];
      alloc_words = 0.;
      major_words = 0.;
      heap_words = 0;
    }
  in
  Alcotest.(check (float 1e-9)) "penalty" 30.
    (Runner.penalized_time ~deadline_s:30. row);
  Alcotest.(check (float 1e-9)) "normalized" 60.
    (Runner.normalized_time ~deadline_s:30. row)

(* ------------------------------------------------------------------ *)
(* Perf-regression baselines                                           *)

module Baseline = Sepsat_harness.Baseline

let fake_row ?(method_ = Decide.Sd) ?(phases = [ ("elim", 0.1); ("sat", 0.2) ])
    bench wall =
  {
    Runner.bench;
    family = "f";
    invariant_checking = false;
    method_;
    size = 10;
    sep_cnt = 1;
    verdict = Verdict.Valid;
    outcome = Runner.Completed;
    total_time = wall;
    wall_time = wall;
    translate_time = 0.;
    sat_time = 0.;
    cnf_clauses = 0;
    conflicts = 0;
    decisions = 0;
    propagations = 0;
    trans_constraints = 0;
    phase_times = phases;
    alloc_words = 0.;
    major_words = 0.;
    heap_words = 0;
  }

let entry ?(method_ = "sd") ?(phases = []) bench wall =
  {
    Baseline.e_bench = bench;
    e_method = method_;
    e_wall_s = wall;
    e_runs = 1;
    e_phases = phases;
  }

let test_baseline_of_rows () =
  let rows =
    [
      fake_row "a" 2.0 ~phases:[ ("sat", 1.9) ];
      fake_row "a" 1.0 ~phases:[ ("sat", 0.9) ];
      fake_row "a" 3.0 ~phases:[ ("sat", 2.9) ];
      fake_row "b" 0.5;
      fake_row "a" ~method_:Decide.Eij 4.0;
    ]
  in
  match Baseline.of_rows rows with
  | [ a_sd; b; a_eij ] ->
    Alcotest.(check string) "first-seen order" "a" a_sd.Baseline.e_bench;
    Alcotest.(check (float 1e-9)) "min-of-k wall" 1.0 a_sd.Baseline.e_wall_s;
    Alcotest.(check int) "runs aggregated" 3 a_sd.Baseline.e_runs;
    Alcotest.(check (float 1e-9)) "phases follow the fastest run" 0.9
      (List.assoc "sat" a_sd.Baseline.e_phases);
    Alcotest.(check string) "second bench" "b" b.Baseline.e_bench;
    Alcotest.(check bool) "methods kept apart" true
      (a_eij.Baseline.e_method <> a_sd.Baseline.e_method)
  | es -> Alcotest.failf "expected 3 entries, got %d" (List.length es)

let test_baseline_roundtrip () =
  let entries = Baseline.of_rows [ fake_row "a" 1.5; fake_row "b" 0.25 ] in
  let path = Filename.temp_file "baseline" ".json" in
  Baseline.write path entries;
  let back =
    match Baseline.read path with
    | Ok es -> es
    | Error e -> Alcotest.failf "read: %s" e
  in
  Sys.remove path;
  Alcotest.(check int) "entry count" (List.length entries) (List.length back);
  List.iter2
    (fun (a : Baseline.entry) (b : Baseline.entry) ->
      Alcotest.(check string) "bench" a.Baseline.e_bench b.Baseline.e_bench;
      Alcotest.(check string) "method" a.Baseline.e_method b.Baseline.e_method;
      Alcotest.(check (float 1e-9)) "wall" a.Baseline.e_wall_s b.Baseline.e_wall_s;
      Alcotest.(check (float 1e-9)) "phase"
        (List.assoc "sat" a.Baseline.e_phases)
        (List.assoc "sat" b.Baseline.e_phases))
    entries back

let test_baseline_compare () =
  let base =
    [
      entry "a" 1.0; entry "b" 1.0; entry "c" 1.0; entry "d" 1.0;
      entry "gone" 1.0;
    ]
  in
  (* identical run: no regressions, drift 1 *)
  let same = [ entry "a" 1.0; entry "b" 1.0; entry "c" 1.0; entry "d" 1.0 ] in
  let c = Baseline.compare_ ~baseline:base same in
  Alcotest.(check bool) "identical is clean" false (Baseline.regressed c);
  Alcotest.(check (float 1e-9)) "no drift" 1.0 c.Baseline.c_drift;
  Alcotest.(check int) "missing reported" 1
    (List.length c.Baseline.c_missing);
  (* a uniformly 3x slower machine is drift, not regression *)
  let slow = [ entry "a" 3.0; entry "b" 3.0; entry "c" 3.0; entry "d" 3.0 ] in
  let c = Baseline.compare_ ~baseline:base slow in
  Alcotest.(check (float 1e-9)) "drift absorbed" 3.0 c.Baseline.c_drift;
  Alcotest.(check bool) "uniform slowdown is clean" false
    (Baseline.regressed c);
  (* one benchmark leaving the pack is exactly what gets flagged *)
  let spike =
    [ entry "a" 1.0; entry "b" 1.0; entry "c" 1.0;
      entry "d" 2.0 ~phases:[ ("sat", 1.9) ] ]
  in
  let base_p =
    [ entry "a" 1.0; entry "b" 1.0; entry "c" 1.0;
      entry "d" 1.0 ~phases:[ ("sat", 0.9) ] ]
  in
  let c = Baseline.compare_ ~baseline:base_p spike in
  Alcotest.(check bool) "spike regresses" true (Baseline.regressed c);
  (match c.Baseline.c_regressions with
  | [ d ] ->
    Alcotest.(check string) "the right bench" "d" d.Baseline.d_bench;
    (match d.Baseline.d_worst_phase with
    | Some (name, _) -> Alcotest.(check string) "attributed" "sat" name
    | None -> Alcotest.fail "no phase attribution")
  | ds -> Alcotest.failf "expected 1 regression, got %d" (List.length ds));
  (* below the absolute floor nothing fires, however large the ratio *)
  let tiny_base = [ entry "a" 0.001; entry "b" 0.001 ] in
  let tiny_cur = [ entry "a" 0.010; entry "b" 0.001 ] in
  let c = Baseline.compare_ ~baseline:tiny_base tiny_cur in
  Alcotest.(check bool) "absolute floor holds" false (Baseline.regressed c);
  (* new benchmarks are reported, never flagged *)
  let c =
    Baseline.compare_ ~baseline:[ entry "a" 1.0 ]
      [ entry "a" 1.0; entry "fresh" 9.0 ]
  in
  Alcotest.(check int) "new reported" 1 (List.length c.Baseline.c_new);
  Alcotest.(check bool) "new never regresses" false (Baseline.regressed c)

let test_baseline_reads_report () =
  (* a schema-2 report written by Runner.write_json reads back as a
     baseline, aggregating repeated runs by min *)
  let rows =
    [ fake_row "a" 2.0; fake_row "a" 1.0; fake_row "b" 0.5 ]
  in
  let path = Filename.temp_file "report" ".json" in
  Runner.write_json path rows;
  let back =
    match Baseline.read path with
    | Ok es -> es
    | Error e -> Alcotest.failf "read: %s" e
  in
  Sys.remove path;
  match back with
  | [ a; b ] ->
    Alcotest.(check string) "bench a" "a" a.Baseline.e_bench;
    Alcotest.(check (float 1e-6)) "report min" 1.0 a.Baseline.e_wall_s;
    Alcotest.(check int) "report runs" 2 a.Baseline.e_runs;
    Alcotest.(check string) "bench b" "b" b.Baseline.e_bench
  | es -> Alcotest.failf "expected 2 entries, got %d" (List.length es)

let test_ascii_plot () =
  let series =
    [
      { Ascii_plot.label = "a"; glyph = '+'; points = [ (1., 1.); (10., 100.) ] };
      { Ascii_plot.label = "b"; glyph = 'o'; points = [ (5., 0.5) ] };
    ]
  in
  let out =
    Format.asprintf "%a"
      (fun ppf () ->
        Ascii_plot.scatter ~diagonal:true ~xlabel:"x" ~ylabel:"y" ppf series)
      ()
  in
  Alcotest.(check bool) "contains glyphs" true
    (String.contains out '+' && String.contains out 'o');
  Alcotest.(check bool) "non-empty" true (String.length out > 100);
  let empty =
    Format.asprintf "%a"
      (fun ppf () -> Ascii_plot.scatter ~xlabel:"x" ~ylabel:"y" ppf [])
      ()
  in
  Alcotest.(check string) "no data" "(no data)\n" empty

let () =
  Alcotest.run "harness"
    [
      ( "cluster",
        [
          Alcotest.test_case "variance" `Quick test_variance;
          Alcotest.test_case "best split" `Quick test_best_split;
          Alcotest.test_case "select threshold" `Quick test_select_threshold;
          QCheck_alcotest.to_alcotest prop_best_split_minimal;
          QCheck_alcotest.to_alcotest prop_threshold_shape;
        ] );
      ( "runner",
        [
          Alcotest.test_case "run benchmark" `Quick test_runner;
          Alcotest.test_case "timeout penalty" `Quick test_runner_timeout_penalty;
        ] );
      ( "baseline",
        [
          Alcotest.test_case "of_rows aggregates by min" `Quick
            test_baseline_of_rows;
          Alcotest.test_case "write/read roundtrip" `Quick
            test_baseline_roundtrip;
          Alcotest.test_case "drift-adjusted compare" `Quick
            test_baseline_compare;
          Alcotest.test_case "reads schema-2 reports" `Quick
            test_baseline_reads_report;
        ] );
      ( "ascii_plot",
        [
          Alcotest.test_case "scatter" `Quick test_ascii_plot;
          QCheck_alcotest.to_alcotest prop_plot_total;
        ] );
    ]
