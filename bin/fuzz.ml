(* fuzz — differential fuzzer over the decision procedures.

   Generates random SUF formulas, decides each with SD, EIJ, HYBRID at
   several thresholds, SVC and LAZY, demands unanimous verdicts,
   witness-checks every SAT answer and DRUP-checks every UNSAT answer of a
   proof-producing method. Discrepancies are delta-debugged to a minimal
   reproducer and printed in the SMT-LIB dialect. Exit status: 0 when clean,
   1 when any failure was found. *)

module Differential = Sepsat_check.Differential
module Random_formula = Sepsat_workloads.Random_formula
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
open Cmdliner

let profiles =
  [
    ("small", Random_formula.small);
    ("default", Random_formula.default);
    ("equality", Random_formula.equality_only);
    ("no-apps", { Random_formula.small with Random_formula.allow_apps = false });
  ]

let profile_conv =
  let parse s =
    match List.assoc_opt s profiles with
    | Some c -> Ok c
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown profile %S (expected %s)" s
             (String.concat ", " (List.map fst profiles))))
  in
  let print ppf c =
    let name =
      match List.find_opt (fun (_, c') -> c' = c) profiles with
      | Some (n, _) -> n
      | None -> "<custom>"
    in
    Format.pp_print_string ppf name
  in
  Arg.conv (parse, print)

let iters_arg =
  Arg.(
    value & opt int 200
    & info [ "iters" ] ~docv:"N" ~doc:"Number of random formulas to check.")

let seed_arg =
  Arg.(
    value & opt int 0
    & info [ "seed" ] ~docv:"K" ~doc:"Base seed of the deterministic run.")

let profile_arg =
  Arg.(
    value
    & opt profile_conv Random_formula.small
    & info [ "profile" ] ~docv:"P"
        ~doc:"Formula shape: small, default, equality or no-apps.")

let timeout_arg =
  Arg.(
    value & opt float 10.
    & info [ "timeout" ] ~docv:"SECONDS"
        ~doc:"CPU-time budget of each individual decide call.")

let simplify_modes = [ ("on", `On); ("off", `Off); ("vary", `Vary) ]

let simplify_arg =
  Arg.(
    value
    & opt (enum simplify_modes) `Vary
    & info [ "simplify" ] ~docv:"MODE"
        ~doc:
          "SAT-core pre/inprocessing: $(b,on) or $(b,off) for every \
           iteration, or $(b,vary) (default) to alternate per iteration and \
           fuzz the simplifier against the plain core.")

let no_shrink_arg =
  Arg.(
    value & flag
    & info [ "no-shrink" ]
        ~doc:"Report failing formulas as generated, without delta debugging.")

let quiet_arg =
  Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress progress output.")

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the whole fuzzing run \
           to $(docv) (Perfetto / chrome://tracing).")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"After the run, print the span rollup and metrics tables.")

let log_level_arg =
  Arg.(
    value & opt string "quiet"
    & info [ "log-level" ] ~docv:"LEVEL" ~doc:"quiet (default), info or debug.")

let run iters seed gen timeout simplify no_shrink quiet trace stats log_level =
  (match Obs.level_of_string log_level with
  | Some l -> Obs.set_level l
  | None ->
    Printf.eprintf "unknown log level %S (expected quiet, info or debug)\n"
      log_level;
    exit 2);
  if trace <> None || stats || Obs.get_level () <> Obs.Quiet then
    Obs.enable ();
  let log = if quiet then fun _ -> () else fun s -> Printf.eprintf "%s\n%!" s in
  let vary_simplify =
    match simplify with
    | `On -> Sepsat.Decide.set_simplify_default true; false
    | `Off -> Sepsat.Decide.set_simplify_default false; false
    | `Vary -> true
  in
  let summary =
    Differential.fuzz
      ~procedures:(Differential.default_procedures ~timeout ())
      ~gen ~shrink_failures:(not no_shrink) ~vary_simplify ~log ~iters ~seed
      ()
  in
  Format.printf "%a" Differential.pp_summary summary;
  (match trace with
  | Some path -> Sepsat_obs.Flight.write_trace path
  | None -> ());
  if stats then begin
    Format.printf "%a" Obs.pp_summary (Obs.records ());
    Format.printf "%a" Metrics.pp ()
  end;
  exit (if summary.Differential.failures = [] then 0 else 1)

let () =
  let info =
    Cmd.info "fuzz" ~version:"1.0.0"
      ~doc:
        "Differential fuzzer certifying the sepsat decision procedures \
         against each other, with witness checking of SAT answers and DRUP \
         checking of UNSAT answers."
  in
  let term =
    Term.(
      const run $ iters_arg $ seed_arg $ profile_arg $ timeout_arg
      $ simplify_arg $ no_shrink_arg $ quiet_arg $ trace_arg
      $ stats_flag $ log_level_arg)
  in
  exit (Cmd.eval (Cmd.v info term))
