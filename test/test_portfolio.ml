(* Tests for the multicore portfolio and the incremental SEP_THOLD sweep:
   the race must agree with every individual method, and a whole sweep must
   run on a single SAT solver instance with point-for-point the verdicts of
   the per-threshold fixed encodings. *)

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

(* Small representatives of both verdicts; the heavyweights live in the
   bench driver, not the test suite. *)
let agreement_benchmarks = [ "pipe.2"; "cache.3"; "drv.2" ]

let test_portfolio_agreement () =
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> Alcotest.fail (name ^ " missing")
      | Some bench ->
        let pf = decide_on Decide.Portfolio bench in
        (match pf.Decide.winner with
        | Some _ -> ()
        | None -> Alcotest.fail (name ^ ": portfolio reported no winner"));
        List.iter
          (fun m ->
            let single = decide_on m bench in
            match (pf.Decide.verdict, single.Decide.verdict) with
            | Verdict.Unknown _, _ | _, Verdict.Unknown _ ->
              Alcotest.failf "%s: unknown verdict (portfolio %s, single %s)"
                name
                (verdict_label pf.Decide.verdict)
                (verdict_label single.Decide.verdict)
            | pv, sv ->
              Alcotest.(check string)
                (Format.asprintf "%s: portfolio vs %a" name Decide.pp_method m)
                (verdict_label sv) (verdict_label pv))
          Decide.portfolio_members)
    agreement_benchmarks

let test_portfolio_invalid () =
  (* A buggy instance: the race must surface Invalid with a usable
     countermodel from whichever member wins. *)
  let bench =
    match Suite.find "cache.3" with
    | Some b -> b
    | None -> Alcotest.fail "cache.3 missing"
  in
  let ctx = Ast.create_ctx () in
  let formula = bench.Suite.build ~bug:true ctx in
  let r = Decide.decide ~method_:Decide.Portfolio ~deadline:(deadline ()) ctx formula in
  match r.Decide.verdict with
  | Verdict.Invalid _ ->
    Alcotest.(check bool) "winner recorded" true (r.Decide.winner <> None);
    Alcotest.(check bool) "witness extracted" true (r.Decide.witness <> None)
  | v -> Alcotest.failf "expected invalid, got %s" (verdict_label v)

let test_portfolio_facade () =
  match Suite.find "pipe.2" with
  | None -> Alcotest.fail "pipe.2 missing"
  | Some bench ->
    let ctx = Ast.create_ctx () in
    let formula = bench.Suite.build ctx in
    let r =
      Decide.decide ~method_:Decide.Portfolio ~deadline:(deadline ()) ctx
        formula
    in
    Alcotest.(check bool) "valid" true (r.Decide.verdict = Verdict.Valid);
    (match r.Decide.winner with
    | Some m ->
      Alcotest.(check bool) "winner raced" true
        (List.mem m Decide.portfolio_members)
    | None -> Alcotest.fail "no winner");
    Alcotest.(check int) "three members" 3
      (List.length Decide.portfolio_members)

(* -- Incremental sweep ----------------------------------------------------- *)

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
  Alcotest.run "portfolio"
    [
      ( "race",
        [
          Alcotest.test_case "agrees with members" `Slow
            test_portfolio_agreement;
          Alcotest.test_case "invalid with witness" `Slow
            test_portfolio_invalid;
          Alcotest.test_case "facade" `Quick test_portfolio_facade;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "single solver" `Quick test_sweep_single_solver;
          Alcotest.test_case "matches fixed thresholds" `Slow
            test_sweep_matches_fixed;
          Alcotest.test_case "buggy instance invalid" `Quick
            test_sweep_buggy_invalid;
        ] );
    ]
