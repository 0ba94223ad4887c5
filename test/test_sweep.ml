(* Tests for the incremental SEP_THOLD sweep: a whole sweep must run on a
   single SAT solver instance with point-for-point the verdicts of the
   per-threshold fixed encodings. *)

module Ast = Sepsat_suf.Ast
module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline

let deadline () = Deadline.after 30.

let verdict_label = function
  | Verdict.Valid -> "valid"
  | Verdict.Invalid _ -> "invalid"
  | Verdict.Unknown why -> "unknown: " ^ why

let decide_on method_ (bench : Suite.benchmark) =
  let ctx = Ast.create_ctx () in
  let formula = bench.Suite.build ctx in
  Decide.decide ~method_ ~deadline:(deadline ()) ctx formula

let sweep_benchmarks = [ "pipe.2"; "cache.3" ]

let test_sweep_single_solver () =
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> Alcotest.fail (name ^ " missing")
      | Some bench ->
        let ctx = Ast.create_ctx () in
        let formula = bench.Suite.build ctx in
        let sweep = Decide.decide_sweep ~deadline:(deadline ()) ctx formula in
        Alcotest.(check int)
          (name ^ ": one solver for the whole sweep")
          1 sweep.Decide.solver_creates;
        Alcotest.(check int)
          (name ^ ": one point per threshold")
          (List.length Decide.default_sweep_thresholds)
          (List.length sweep.Decide.points))
    sweep_benchmarks

let test_sweep_matches_fixed () =
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> Alcotest.fail (name ^ " missing")
      | Some bench ->
        let ctx = Ast.create_ctx () in
        let formula = bench.Suite.build ctx in
        let sweep = Decide.decide_sweep ~deadline:(deadline ()) ctx formula in
        List.iter
          (fun (p : Decide.sweep_point) ->
            let fixed =
              decide_on (Decide.Hybrid_at p.Decide.sw_threshold) bench
            in
            Alcotest.(check string)
              (Printf.sprintf "%s at threshold %d" name p.Decide.sw_threshold)
              (verdict_label fixed.Decide.verdict)
              (verdict_label p.Decide.sw_verdict))
          sweep.Decide.points)
    sweep_benchmarks

let test_sweep_buggy_invalid () =
  (* On a buggy instance every threshold must answer Invalid, and the decoded
     countermodel comes off the selector-aware decoder. *)
  let bench =
    match Suite.find "pipe.2" with
    | Some b -> b
    | None -> Alcotest.fail "pipe.2 missing"
  in
  let ctx = Ast.create_ctx () in
  let formula = bench.Suite.build ~bug:true ctx in
  let sweep = Decide.decide_sweep ~deadline:(deadline ()) ctx formula in
  Alcotest.(check int) "single solver" 1 sweep.Decide.solver_creates;
  List.iter
    (fun (p : Decide.sweep_point) ->
      match p.Decide.sw_verdict with
      | Verdict.Invalid _ -> ()
      | v ->
        Alcotest.failf "threshold %d: expected invalid, got %s"
          p.Decide.sw_threshold (verdict_label v))
    sweep.Decide.points

let () =
  Alcotest.run "sweep"
    [
      ( "sweep",
        [
          Alcotest.test_case "single solver" `Quick test_sweep_single_solver;
          Alcotest.test_case "matches fixed thresholds" `Slow
            test_sweep_matches_fixed;
          Alcotest.test_case "buggy instance invalid" `Quick
            test_sweep_buggy_invalid;
        ] );
    ]
