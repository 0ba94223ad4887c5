(* sufdec — command-line front end of the sepsat decision procedure.

   sufdec solve FILE [--method M] [--timeout S] [--countermodel]
                     [--certify]
   sufdec smt FILE [--method M] [--timeout S]      SMT-LIB 2 (QF_UFIDL subset)
   sufdec stats FILE
   sufdec cnf FILE [--method M]                    DIMACS export
   sufdec gen --family F --size N [--bug] [--seed K]
   sufdec list
   sufdec serve [--socket PATH] [--workers N] [--queue N] [--cache N]
                [--flight-dir DIR]
   sufdec submit --socket PATH [FILE...|--suite S] [--method M] [--json]
   sufdec top --socket PATH [--interval S] [--frames N]
   sufdec loadgen [--clients N] [--repeats K] [--json FILE]

   FILE is '-' for stdin throughout. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict
module Brute = Sepsat_sep.Brute
module Deadline = Sepsat_util.Deadline
module Json = Sepsat_util.Json
module Suite = Sepsat_workloads.Suite
module Obs = Sepsat_obs.Obs
module Flight = Sepsat_obs.Flight
module Metrics = Sepsat_obs.Metrics
module Progress = Sepsat_obs.Progress
open Cmdliner

(* Chunked, not byte-at-a-time: scripts pipe whole benchmark suites through
   stdin, and 64 KiB reads keep that I/O-bound rather than syscall-bound. *)
let read_all ic =
  let buf = Buffer.create 65536 in
  let chunk = Bytes.create 65536 in
  let rec loop () =
    let n = input ic chunk 0 (Bytes.length chunk) in
    if n > 0 then begin
      Buffer.add_subbytes buf chunk 0 n;
      loop ()
    end
  in
  (try loop () with End_of_file -> ());
  Buffer.contents buf

let read_text path = if path = "-" then read_all stdin else (
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) (fun () -> read_all ic))

let read_formula ctx path =
  if path = "-" then Parse.formula ctx (read_all stdin)
  else Parse.formula_of_file ctx path

let method_conv =
  let parse s =
    match Decide.method_of_string s with
    | Some m -> Ok m
    | None ->
      Error
        (`Msg
          (Printf.sprintf
             "unknown method %S (expected sd, eij, hybrid, hybrid:<n>, svc \
              or lazy)"
             s))
  in
  let print ppf m = Decide.pp_method ppf m in
  Arg.conv (parse, print)

let file_arg =
  Arg.(
    required
    & pos 0 (some string) None
    & info [] ~docv:"FILE" ~doc:"Formula file in the s-expression syntax ('-' for stdin).")

let method_arg =
  Arg.(
    value
    & opt method_conv Decide.Hybrid_default
    & info [ "m"; "method" ] ~docv:"METHOD"
        ~doc:
          "Decision method: sd, eij, hybrid, hybrid:N, svc or lazy. $(b,hybrid) \
           is the fill-checked rule: SD for a class with SepCnt above 700 \
           unless a capped count of EIJ's transitivity constraints shows EIJ \
           is within 1.5x of SD's estimated size. $(b,hybrid:N) is the \
           paper's exact rule at SEP_THOLD N: SD iff SepCnt > N.")

let timeout_arg =
  Arg.(
    value
    & opt float 60.
    & info [ "t"; "timeout" ] ~docv:"SECONDS" ~doc:"CPU-time budget.")

let countermodel_arg =
  Arg.(
    value & flag
    & info [ "countermodel" ]
        ~doc:"On an invalid formula, print a falsifying assignment.")

let certify_arg =
  Arg.(
    value & flag
    & info [ "certify" ]
        ~doc:
          "Record a DRUP proof and replay it through the independent \
           checker; valid verdicts then report their certification status. \
           Eager methods only.")

(* -- Observability flags (shared by solve and smt) ------------------------- *)

let level_conv =
  let parse s =
    match Obs.level_of_string s with
    | Some l -> Ok l
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown log level %S (expected quiet, info or debug)" s))
  in
  let print ppf l =
    Format.pp_print_string ppf
      (match l with Obs.Quiet -> "quiet" | Obs.Info -> "info" | Obs.Debug -> "debug")
  in
  Arg.conv (parse, print)

let trace_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace" ] ~docv:"FILE"
        ~doc:
          "Write a Chrome trace_event JSON timeline of the run to $(docv); \
           load it in https://ui.perfetto.dev or chrome://tracing.")

let stats_flag =
  Arg.(
    value & flag
    & info [ "stats" ]
        ~doc:"After the run, print the span rollup and metrics tables.")

let log_level_arg =
  Arg.(
    value
    & opt level_conv Obs.Quiet
    & info [ "log-level" ] ~docv:"LEVEL"
        ~doc:
          "quiet (default), info or debug. info prints one CDCL progress \
           line per second to stderr; debug prints four.")

(* Turns collection on when any observability output was requested; the
   returned finalizer writes/prints those outputs (call it before [exit]). *)
let obs_setup trace stats level =
  Obs.set_level level;
  if trace <> None || stats || level <> Obs.Quiet then begin
    Obs.enable ();
    match level with
    | Obs.Debug -> Progress.install_printer ~every_s:0.25 ()
    | Obs.Info -> Progress.install_printer ()
    | Obs.Quiet -> ()
  end;
  fun () ->
    (match trace with
    | Some path ->
      Flight.write_trace path;
      Obs.log Obs.Info "trace written to %s" path
    | None -> ());
    if stats then begin
      Format.printf "%a" Obs.pp_summary (Obs.records ());
      Format.printf "%a" Metrics.pp ()
    end

let obs_term = Term.(const obs_setup $ trace_arg $ stats_flag $ log_level_arg)

let pp_assignment ppf (a : Brute.assignment) =
  List.iter (fun (n, v) -> Format.fprintf ppf "  %s = %d@." n v) a.Brute.ints;
  List.iter (fun (n, b) -> Format.fprintf ppf "  %s = %b@." n b) a.Brute.bools

let solve_cmd =
  let run file method_ timeout countermodel certify obs_finish =
    let ctx = Ast.create_ctx () in
    match Obs.span ~cat:"pipeline" "parse" (fun () -> read_formula ctx file) with
    | exception Parse.Error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 2
    | formula ->
      let deadline = Deadline.after timeout in
      let r =
        Obs.span ~cat:"pipeline" "solve" (fun () ->
            Decide.decide ~method_ ~deadline ~certify ctx formula)
      in
      Format.printf "method:     %a@." Decide.pp_method method_;
      Format.printf "size:       %d DAG nodes@." (Ast.size formula);
      Format.printf "translate:  %.3fs@." r.Decide.translate_time;
      Format.printf "search:     %.3fs@." r.Decide.sat_time;
      (match r.Decide.phase_times with
      | [] -> ()
      | phases ->
        Format.printf "phases:    ";
        List.iter (fun (n, t) -> Format.printf " %s=%.3fs" n t) phases;
        Format.printf "@.");
      (match r.Decide.sat_stats with
      | Some st ->
        Format.printf "sat:        %a@." Sepsat_sat.Solver.pp_stats st
      | None -> ());
      let code =
        match r.Decide.verdict with
        | Verdict.Valid ->
          (match r.Decide.certified with
          | Some true -> Format.printf "result:     valid (DRUP-certified)@."
          | Some false ->
            Format.printf "result:     valid (CERTIFICATION FAILED)@."
          | None -> Format.printf "result:     valid@.");
          0
        | Verdict.Invalid assignment ->
          Format.printf "result:     invalid@.";
          if countermodel then begin
            Format.printf "countermodel (separation-logic constants):@.";
            pp_assignment Format.std_formatter assignment;
            match r.Decide.witness with
            | Some w ->
              Format.printf
                "first-order witness (falsifies the original formula):@.%a"
                Sepsat.Witness.pp w
            | None -> ()
          end;
          1
        | Verdict.Unknown why ->
          Format.printf "result:     unknown (%s)@." why;
          (* Unknown must not be a dead end: name the phase that gave up so
             the user knows whether to raise the timeout, switch encodings
             or shrink the formula. *)
          (match List.rev r.Decide.phase_times with
          | (phase, t) :: _ ->
            Format.printf "gave up in: %s (%.3fs of %.3fs total)@." phase t
              r.Decide.total_time
          | [] -> ());
          (match r.Decide.cnf_clauses with
          | 0 -> ()
          | n -> Format.printf "cnf:        %d clauses@." n);
          3
      in
      obs_finish ();
      exit code
  in
  let term =
    Term.(
      const run $ file_arg $ method_arg $ timeout_arg
      $ countermodel_arg $ certify_arg $ obs_term)
  in
  Cmd.v
    (Cmd.info "solve" ~doc:"Decide the validity of a SUF formula.")
    term

let stats_cmd =
  let run file =
    let ctx = Ast.create_ctx () in
    match read_formula ctx file with
    | exception Parse.Error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 2
    | formula ->
      let elim = Decide.eliminate ctx formula in
      let module Hybrid = Sepsat_encode.Hybrid in
      let module Classes = Sepsat_sep.Classes in
      let classes, decisions =
        Hybrid.decisions ctx ~p_consts:elim.Sepsat_suf.Elim.p_consts
          elim.Sepsat_suf.Elim.formula
      in
      Format.printf "size:             %d DAG nodes@." (Ast.size formula);
      Format.printf "functions:        %d@."
        (List.length (Ast.functions formula));
      Format.printf "predicates:       %d@."
        (List.length (Ast.predicates formula));
      Format.printf "p-constants:      %d@."
        (Sepsat_util.Sset.cardinal elim.Sepsat_suf.Elim.p_consts);
      Format.printf "atoms:            %d@." (Classes.num_atoms classes);
      Format.printf "sep. predicates:  %d@." (Classes.total_sep_cnt classes);
      Format.printf "classes:@.";
      Array.iter2
        (fun (c : Classes.class_info) (d : Hybrid.decision) ->
          Format.printf
            "  class %d: %d members, range %d, SepCnt %d, SD_est %d%s -> %s@."
            c.Classes.id (List.length c.Classes.members) c.Classes.range
            d.Hybrid.sep_cnt d.Hybrid.sd_est
            (match d.Hybrid.fill with
            | Hybrid.Unchecked -> ""
            | Hybrid.Fill n -> Printf.sprintf ", fill %d" n
            | Hybrid.Over_cap -> ", fill over cap")
            (match d.Hybrid.choice with
            | Hybrid.Use_sd -> "SD"
            | Hybrid.Use_eij -> "EIJ"))
        (Classes.classes classes) decisions
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Print encoding-relevant statistics of a SUF formula.")
    Term.(const run $ file_arg)

let family_conv =
  let parse s =
    match
      List.find_opt
        (fun f -> Suite.family_name f = s)
        [
          Suite.Pipeline; Suite.Load_store; Suite.Ooo_invariant; Suite.Cache;
          Suite.Trans_valid; Suite.Device_driver; Suite.Batch;
        ]
    with
    | Some f -> Ok f
    | None -> Error (`Msg (Printf.sprintf "unknown family %S" s))
  in
  Arg.conv (parse, fun ppf f -> Format.pp_print_string ppf (Suite.family_name f))

let gen_cmd =
  let run family size bug seed =
    let ctx = Ast.create_ctx () in
    let formula =
      match family with
      | Suite.Pipeline ->
        Sepsat_workloads.Pipeline.formula ~bug ctx ~n_instructions:size ~seed
      | Suite.Load_store -> Sepsat_workloads.Load_store.formula ~bug ctx ~n_ops:size
      | Suite.Ooo_invariant ->
        Sepsat_workloads.Ooo_invariant.formula ~bug ctx ~n_entries:size
      | Suite.Cache -> Sepsat_workloads.Cache.formula ~bug ctx ~n_caches:size
      | Suite.Trans_valid ->
        Sepsat_workloads.Trans_valid.formula ~bug ctx ~n_blocks:size ~seed
      | Suite.Device_driver ->
        Sepsat_workloads.Device_driver.formula ~bug ctx ~n_steps:size ~seed
      | Suite.Batch ->
        Sepsat_workloads.Batch.formula ~bug ctx ~n_units:4 ~n_ops:size
    in
    Format.printf "%a@." Ast.pp formula
  in
  let family_arg =
    Arg.(
      required
      & opt (some family_conv) None
      & info [ "family" ] ~docv:"FAMILY"
          ~doc:
            "Benchmark family: pipeline, load-store, ooo-invariant, cache, \
             trans-valid or device-driver.")
  in
  let size_arg =
    Arg.(value & opt int 5 & info [ "size" ] ~docv:"N" ~doc:"Instance size.")
  in
  let bug_arg =
    Arg.(value & flag & info [ "bug" ] ~doc:"Generate the invalid mutation.")
  in
  let seed_arg =
    Arg.(value & opt int 0 & info [ "seed" ] ~docv:"K" ~doc:"Random seed.")
  in
  Cmd.v
    (Cmd.info "gen" ~doc:"Generate a benchmark formula on stdout.")
    Term.(const run $ family_arg $ size_arg $ bug_arg $ seed_arg)

let cnf_cmd =
  let run file method_ =
    let ctx = Ast.create_ctx () in
    match read_formula ctx file with
    | exception Parse.Error msg ->
      Format.eprintf "parse error: %s@." msg;
      exit 2
    | formula -> (
      match method_ with
      | Decide.Svc_baseline | Decide.Lazy_baseline ->
        Format.eprintf "cnf export requires an eager method@.";
        exit 2
      | Decide.Sd | Decide.Eij | Decide.Hybrid_default | Decide.Hybrid_at _ -> (
        match Decide.cnf ~method_ ctx formula with
        | exception Sepsat_encode.Hybrid.Translation_blowup ->
          Format.eprintf "translation blowup@.";
          exit 3
        | cnf ->
          Format.printf "c negation of the validity query of %s@." file;
          Format.printf "c the formula is valid iff this instance is unsat@.";
          Format.printf "%a" Sepsat_sat.Dimacs.print cnf))
  in
  Cmd.v
    (Cmd.info "cnf"
       ~doc:
         "Print the DIMACS CNF of the (negated) validity query, for external \
          SAT solvers.")
    Term.(const run $ file_arg $ method_arg)

let smt_cmd =
  let run file method_ timeout obs_finish =
    let ctx = Ast.create_ctx () in
    match
      if file = "-" then Sepsat_suf.Smtlib.script ctx (read_all stdin)
      else Sepsat_suf.Smtlib.script_of_file ctx file
    with
    | exception Sepsat_suf.Smtlib.Error msg ->
      Format.eprintf "smt-lib error: %s@." msg;
      exit 2
    | script ->
      let goal = Sepsat_suf.Smtlib.goal ctx script in
      let deadline = Deadline.after timeout in
      let r = Decide.decide ~method_ ~deadline ctx goal in
      let code =
        match r.Decide.verdict with
        | Verdict.Valid ->
          print_endline "unsat";
          0
        | Verdict.Invalid _ ->
          print_endline "sat";
          0
        | Verdict.Unknown why ->
          Format.printf "unknown ; %s@." why;
          3
      in
      obs_finish ();
      exit code
  in
  Cmd.v
    (Cmd.info "smt"
       ~doc:
         "Run an SMT-LIB 2 script (QF_UFIDL subset) and answer check-sat.")
    Term.(const run $ file_arg $ method_arg $ timeout_arg $ obs_term)

(* -- Serving -------------------------------------------------------------- *)

module Engine = Sepsat_serve.Engine
module Server = Sepsat_serve.Server
module Session = Sepsat_serve.Session
module Protocol = Sepsat_serve.Protocol

let socket_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:"Unix-domain socket path (serve: listen; submit: connect).")

let serve_cmd =
  let run socket metrics_socket log_json flight_dir workers queue_cap
      cache_cap default_timeout instance obs_finish =
    (match instance with
    | None -> ()
    | Some label ->
      (* Fleet members stamp their series so the router can merge the
         backends' expositions into one document without collisions. *)
      Sepsat_obs.Prom.set_const_labels [ ("backend", label) ]);
    let log_close =
      match log_json with
      | None -> fun () -> ()
      | Some "-" ->
        Sepsat_obs.Log.enable ();
        fun () -> ()
      | Some path ->
        let oc = open_out path in
        let sink line =
          output_string oc line;
          output_char oc '\n';
          flush oc
        in
        Sepsat_obs.Log.enable ~sink ();
        fun () ->
          Sepsat_obs.Log.disable ();
          close_out_noerr oc
    in
    let engine =
      Engine.create ?workers ?flight_dir ~queue_capacity:queue_cap
        ~cache_capacity:cache_cap ~default_timeout_s:default_timeout ()
    in
    (* The engine turned the event store on; wire up the on-demand
       dumps: SIGUSR1 for a live server, the crash handler for everything
       else. *)
    Flight.install_signal_dump ();
    Flight.install_crash_dump ();
    (match socket with
    | Some path -> Server.serve_unix ?metrics_path:metrics_socket engine ~path
    | None ->
      (* Stdio mode still gets the scrape socket: the JSON-lines stream is
         owned by the client, so HTTP is the only side channel. *)
      ignore (Server.serve_stdio ?metrics_path:metrics_socket engine));
    Engine.shutdown engine;
    log_close ();
    obs_finish ()
  in
  let metrics_socket_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics-socket" ] ~docv:"PATH"
          ~doc:
            "Serve Prometheus scrapes (GET /metrics over HTTP) on a second \
             Unix-domain socket, e.g. for curl --unix-socket $(docv) \
             http://localhost/metrics.")
  in
  let log_json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "log-json" ] ~docv:"FILE"
          ~doc:
            "Write structured JSON-lines request logs (one object per \
             event, correlated by request id) to $(docv); '-' for stderr.")
  in
  let flight_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "flight-dir" ] ~docv:"DIR"
          ~doc:
            "Directory for flight-recorder dumps (default: current \
             directory). Also arms automatic dumps on per-request deadline \
             expiry; SIGUSR1 and crash dumps are always armed.")
  in
  let workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:"Worker domains (default: cores - 1, clamped to 1..8).")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N"
          ~doc:
            "Bounded request-queue capacity; beyond it the server sheds \
             load with busy replies.")
  in
  let cache_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache" ] ~docv:"N" ~doc:"Result-cache capacity in entries.")
  in
  let default_timeout_arg =
    Arg.(
      value & opt float 30.
      & info [ "t"; "timeout" ] ~docv:"SECONDS"
          ~doc:
            "Default per-request wall-clock budget (requests may override \
             with timeout_s). Expiry answers unknown; it never kills the \
             server.")
  in
  let instance_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "instance" ] ~docv:"LABEL"
          ~doc:
            "Stamp every Prometheus series with a constant \
             backend=\"$(docv)\" label — how fleet members keep their \
             metrics distinct when the router merges them.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the solver as a long-lived service speaking the JSON-lines \
          protocol on stdin/stdout or a Unix-domain socket.")
    Term.(
      const run $ socket_arg $ metrics_socket_arg $ log_json_arg
      $ flight_dir_arg $ workers_arg $ queue_arg $ cache_arg
      $ default_timeout_arg $ instance_arg $ obs_term)

let submit_cmd =
  let run socket files suite method_ timeout lang_s as_json retries no_retry
      do_ping do_stats do_metrics do_dump do_shutdown =
    let path =
      match socket with
      | Some p -> p
      | None ->
        Format.eprintf "submit requires --socket PATH@.";
        exit 2
    in
    let lang =
      match Protocol.lang_of_string lang_s with
      | Some l -> l
      | None ->
        Format.eprintf "unknown lang %S (expected suf or smt)@." lang_s;
        exit 2
    in
    let session =
      try ref (Session.connect ~retries:50 path)
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot connect to %s: %s@." path (Unix.error_message e);
        exit 2
    in
    (* Busy sheds and connections dropped by a restarting backend retry
       with jittered backoff; --no-retry keeps the first answer (the
       scriptable mode — a busy is then visible, not hidden). *)
    let attempts = if no_retry then 1 else max 1 retries in
    let rpc_retrying req =
      let s, reply =
        Session.with_retry ~attempts ~path !session (fun s ->
            Session.rpc s req)
      in
      session := s;
      reply
    in
    let failures = ref 0 in
    let print_reply reply =
      if as_json then print_endline (Protocol.reply_to_line reply)
      else
        match reply with
        | Protocol.Ok_solve s ->
          let trace_suffix =
            match s.Protocol.sv_trace with
            | None -> ""
            | Some tr ->
              Printf.sprintf " rid=%s via=%s" tr.Protocol.rt_rid
                tr.Protocol.rt_served_by
          in
          Format.printf "%-24s %-8s origin=%-6s solve=%.3fms time=%.3fms%s@."
            s.Protocol.sv_id
            (Protocol.verdict_to_string s.Protocol.sv_verdict)
            (Protocol.origin_to_string s.Protocol.sv_origin)
            s.Protocol.sv_solve_ms s.Protocol.sv_time_ms trace_suffix
        | Protocol.Busy id ->
          incr failures;
          Format.printf "%-24s BUSY (queue full — retry)@." id
        | Protocol.Error (id, reason) ->
          incr failures;
          Format.printf "%-24s ERROR %s@." id reason
        | Protocol.Pong id -> Format.printf "%-24s pong@." id
        | Protocol.Warmed id -> Format.printf "%-24s warmed@." id
        | Protocol.Bye id -> Format.printf "%-24s bye@." id
        | Protocol.Stats (id, j) ->
          Format.printf "%-24s %s@." id (Json.to_string j)
        | Protocol.Metrics (_, body) ->
          (* The exposition document is already line-oriented text. *)
          print_string body
        | Protocol.Dump (_, body) ->
          (* One JSON document — pipe it to python3 -m json.tool or jq. *)
          print_endline body
    in
    if do_ping then print_reply (rpc_retrying (Protocol.Ping "ping"));
    (* Benchmark-suite workloads, by name; files afterwards. *)
    let suite_requests =
      match suite with
      | None -> []
      | Some sel ->
        let benches =
          match sel with
          | "figure2" ->
            List.filter_map Suite.find
              [ "pipe.3"; "pipe.5"; "cache.5"; "cache.6"; "tv.1" ]
          | "sample16" -> Suite.sample16
          | "all" -> Suite.benchmarks
          | name -> (
            match Suite.find name with
            | Some b -> [ b ]
            | None ->
              Format.eprintf
                "unknown suite %S (expected figure2, sample16, all or a \
                 benchmark name)@."
                sel;
              exit 2)
        in
        List.map
          (fun (b : Suite.benchmark) ->
            let ctx = Ast.create_ctx () in
            (b.Suite.name, Format.asprintf "%a" Ast.pp (b.Suite.build ctx)))
          benches
    in
    let file_requests = List.map (fun f -> (f, read_text f)) files in
    List.iter
      (fun (id, text) ->
        print_reply
          (rpc_retrying
             (Protocol.Solve
                {
                  Protocol.sq_id = id;
                  sq_lang = lang;
                  sq_text = text;
                  sq_method = method_;
                  sq_timeout_s = Some timeout;
                  sq_trace = None;
                })))
      (suite_requests @ file_requests);
    if do_stats then
      print_reply (rpc_retrying (Protocol.Stats_req "stats"));
    if do_metrics then
      print_reply (rpc_retrying (Protocol.Metrics_req "metrics"));
    if do_dump then print_reply (rpc_retrying (Protocol.Dump_req "dump"));
    if do_shutdown then
      print_reply (Session.rpc !session (Protocol.Shutdown ""));
    Session.close !session;
    if !failures > 0 then exit 3
  in
  let files_arg =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE" ~doc:"Formula files to submit ('-' for stdin).")
  in
  let suite_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "suite" ] ~docv:"SEL"
          ~doc:
            "Submit built-in benchmarks: figure2, sample16, all, or a \
             benchmark name.")
  in
  let lang_arg =
    Arg.(
      value & opt string "suf"
      & info [ "lang" ] ~docv:"LANG" ~doc:"Input language: suf or smt.")
  in
  let json_flag =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Print raw protocol reply lines (JSON-lines).")
  in
  let ping_flag =
    Arg.(value & flag & info [ "ping" ] ~doc:"Ping the server first.")
  in
  let stats_flag' =
    Arg.(
      value & flag
      & info [ "server-stats" ] ~doc:"Fetch server statistics afterwards.")
  in
  let metrics_flag =
    Arg.(
      value & flag
      & info [ "metrics" ]
          ~doc:
            "Fetch the server's Prometheus exposition document afterwards \
             (printed as text; with $(b,--json), as the raw reply line).")
  in
  let dump_flag =
    Arg.(
      value & flag
      & info [ "dump" ]
          ~doc:
            "Fetch the server's flight-recorder contents afterwards (one \
             JSON document).")
  in
  let shutdown_flag =
    Arg.(
      value & flag
      & info [ "shutdown" ] ~doc:"Ask the server to shut down afterwards.")
  in
  let retries_arg =
    Arg.(
      value & opt int 8
      & info [ "retries" ] ~docv:"N"
          ~doc:
            "Retry budget for transient failures — busy sheds and \
             connections dropped by a restarting backend — with jittered \
             exponential backoff (0.1 s base, 2 s cap).")
  in
  let no_retry_flag =
    Arg.(
      value & flag
      & info [ "no-retry" ]
          ~doc:
            "Take the first answer, transient or not; busy replies and \
             dropped connections surface immediately.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit formulas (files or built-in benchmarks) to a running \
          sufdec server over its Unix-domain socket.")
    Term.(
      const run $ socket_arg $ files_arg $ suite_arg $ method_arg
      $ timeout_arg $ lang_arg $ json_flag $ retries_arg $ no_retry_flag
      $ ping_flag $ stats_flag' $ metrics_flag $ dump_flag $ shutdown_flag)

(* -- top: live terminal dashboard ----------------------------------------- *)

let top_cmd =
  let run socket interval frames =
    let path =
      match socket with
      | Some p -> p
      | None ->
        Format.eprintf "top requires --socket PATH@.";
        exit 2
    in
    let session =
      try Session.connect ~retries:50 path
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot connect to %s: %s@." path (Unix.error_message e);
        exit 2
    in
    let num k j = Option.value ~default:0. (Json.mem_num k j) in
    let str k j = Option.value ~default:"" (Json.mem_str k j) in
    let obj k j = Option.value ~default:(Json.Obj []) (Json.member k j) in
    let arr k j =
      match Json.member k j with Some (Json.Arr l) -> l | _ -> []
    in
    (* Rolling trend history, newest first; sparklines read oldest first. *)
    let hist_qps = ref [] and hist_queue = ref [] and hist_p99 = ref [] in
    let push h v = h := v :: !h in
    let spark h =
      Sepsat_harness.Ascii_plot.sparkline (Array.of_list (List.rev !h))
    in
    let prev = ref None in
    let frame i =
      match Session.stats session with
      | None ->
        Format.eprintf "server did not answer stats@.";
        exit 3
      | Some j ->
        let now = Unix.gettimeofday () in
        let completed = num "completed" j in
        let qps =
          match !prev with
          | Some (c0, t0) when now -. t0 > 1e-3 -> (completed -. c0) /. (now -. t0)
          | _ -> 0.
        in
        prev := Some (completed, now);
        push hist_qps qps;
        push hist_queue (num "queue_depth" j);
        let lat = obj "latency_ms" j in
        push hist_p99 (num "p99" lat);
        let cache = obj "cache" j in
        let hits = num "hits" cache and misses = num "misses" cache in
        let hit_rate =
          if hits +. misses > 0. then 100. *. hits /. (hits +. misses) else 0.
        in
        (* A single frame is a plain report (the CI mode); a live loop
           repaints in place. *)
        if frames <> 1 then print_string "\027[2J\027[H";
        Format.printf "sufdec top — %s  frame %d%s  every %.1fs@." path i
          (if frames = 0 then "" else Printf.sprintf "/%d" frames)
          interval;
        Format.printf
          "requests  submitted %.0f  completed %.0f  shed %.0f  errors %.0f  \
           workers %.0f@."
          (num "submitted" j) completed (num "shed" j) (num "errors" j)
          (num "workers" j);
        Format.printf "qps       %8.1f  %s@." qps (spark hist_qps);
        Format.printf "queue     %8.0f  %s@." (num "queue_depth" j)
          (spark hist_queue);
        Format.printf "p99 ms    %8.2f  %s@." (num "p99" lat) (spark hist_p99);
        Format.printf
          "latency   p50 %.2fms  p90 %.2fms  p99 %.2fms over %.0f reqs%s@."
          (num "p50" lat) (num "p90" lat) (num "p99" lat) (num "count" lat)
          (match str "p99_rid" lat with
          | "" -> ""
          | rid -> Printf.sprintf "  (p99 exemplar %s)" rid);
        Format.printf
          "cache     %.1f%% hit  (hits %.0f  misses %.0f  size %.0f/%.0f)@."
          hit_rate hits misses (num "size" cache) (num "capacity" cache);
        (match arr "exemplars" j with
        | [] -> ()
        | exes ->
          (* Fleet stats tag each exemplar with the backend it ran on;
             single-server stats have no backend field and get no column. *)
          let fleet = List.exists (fun e -> str "backend" e <> "") exes in
          Format.printf "slowest request per latency bucket:@.";
          List.iter
            (fun e ->
              let le =
                match Json.member "le" e with
                | Some (Json.Num ub) -> Printf.sprintf "%g" ub
                | _ -> "+Inf"
              in
              if fleet then
                Format.printf "  le %-6s  %-16s on %-8s %8.1fms@." le
                  (str "rid" e) (str "backend" e)
                  (1000. *. num "value_s" e)
              else
                Format.printf "  le %-6s  %-12s %8.1fms@." le (str "rid" e)
                  (1000. *. num "value_s" e))
            exes);
        (match
           List.filter_map
             (fun b ->
               match Json.member "hops" b with
               | Some (Json.Obj _ as h) -> Some (b, h)
               | _ -> None)
             (arr "backends" j)
         with
        | [] -> ()
        | hop_rows ->
          Format.printf "hop means per backend (ms):@.";
          Format.printf "  %-10s %6s %8s %8s %8s %8s %8s %8s@." "backend"
            "count" "parse" "rtr.q" "wire" "shd.q" "solve" "reply";
          List.iter
            (fun (b, h) ->
              Format.printf
                "  %-10s %6.0f %8.2f %8.2f %8.2f %8.2f %8.2f %8.2f@."
                (str "label" b) (num "count" h) (num "router_parse_ms" h)
                (num "router_queue_ms" h) (num "wire_ms" h)
                (num "shard_queue_ms" h) (num "shard_solve_ms" h)
                (num "reply_ms" h))
            hop_rows);
        (match arr "lanes" j with
        | [] -> Format.printf "lanes     (idle)@."
        | lanes ->
          Format.printf "lanes:@.";
          Format.printf "  %-4s %-22s %-12s %10s %10s %9s@." "tid" "name"
            "rid" "conflicts" "confl/s" "elapsed";
          List.iter
            (fun ln ->
              Format.printf "  %-4.0f %-22s %-12s %10.0f %10.0f %8.1fs@."
                (num "tid" ln) (str "name" ln) (str "rid" ln)
                (num "conflicts" ln) (num "rate" ln) (num "elapsed_s" ln))
            lanes)
    in
    let rec loop i =
      frame i;
      if frames = 0 || i < frames then begin
        Unix.sleepf interval;
        loop (i + 1)
      end
    in
    loop 1;
    Session.close session
  in
  let interval_arg =
    Arg.(
      value & opt float 1.0
      & info [ "interval" ] ~docv:"SECONDS" ~doc:"Refresh period.")
  in
  let frames_arg =
    Arg.(
      value & opt int 0
      & info [ "frames" ] ~docv:"N"
          ~doc:
            "Stop after $(docv) refreshes; 0 (default) runs until \
             interrupted. $(b,--frames 1) prints one plain report — the \
             scriptable mode.")
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Live terminal dashboard for a running sufdec server: qps, queue \
          depth, cache hit rate, latency quantiles with exemplar request \
          ids, and per-lane solver progress, polled over the stats op.")
    Term.(const run $ socket_arg $ interval_arg $ frames_arg)

(* -- trace: assemble a cross-process Chrome trace from flight dumps ------- *)

let trace_cmd =
  let run socket rid out =
    let path =
      match socket with
      | Some p -> p
      | None ->
        Format.eprintf "trace requires --socket PATH@.";
        exit 2
    in
    let session =
      try Session.connect ~retries:50 path
      with Unix.Unix_error (e, _, _) ->
        Format.eprintf "cannot connect to %s: %s@." path (Unix.error_message e);
        exit 2
    in
    let body =
      match Session.dump session with
      | Some b -> b
      | None ->
        Format.eprintf "server did not answer the dump op@.";
        exit 3
    in
    Session.close session;
    let doc =
      match Json.parse body with
      | Error e ->
        Format.eprintf "malformed dump: %s@." e;
        exit 3
      | Ok j -> j
    in
    (* A fleet router nests one flight document per process; a single
       server answers its own flight document directly. Either way the
       result is one lane per process. *)
    let sources =
      match Json.mem_str "schema" doc with
      | Some "sepsat-fleet-dump-1" ->
        let router =
          match Json.member "router" doc with
          | Some (Json.Obj _ as r) ->
            [ Flight.source_of_json ~label:"router" r ]
          | _ -> []
        in
        let backends =
          match Json.member "backends" doc with
          | Some (Json.Arr parts) ->
            List.filter_map
              (fun p ->
                let b = Option.value ~default:0 (Json.mem_int "backend" p) in
                match Json.member "flight" p with
                | Some (Json.Obj _ as f) ->
                  Some
                    (Flight.source_of_json
                       ~label:(Printf.sprintf "backend-%d" b)
                       f)
                | _ -> None)
              parts
          | _ -> []
        in
        router @ backends
      | _ -> [ Flight.source_of_json ~label:"server" doc ]
    in
    let trace = Flight.assemble ?rid sources in
    let kept (r : Obs.record) =
      match rid with None -> true | Some id -> r.fr_rid = id
    in
    let total =
      List.fold_left
        (fun acc s ->
          acc + List.length (List.filter kept s.Flight.src_records))
        0 sources
    in
    let rids =
      List.sort_uniq compare
        (List.concat_map
           (fun s ->
             List.filter_map
               (fun (r : Obs.record) ->
                 if kept r && r.fr_rid <> "" then Some r.fr_rid
                 else None)
               s.Flight.src_records)
           sources)
    in
    if out = "-" then print_endline trace
    else begin
      let oc = open_out out in
      output_string oc trace;
      output_char oc '\n';
      close_out oc
    end;
    Format.eprintf "trace: %d lanes (%s), %d records, %d request ids%s%s@."
      (List.length sources)
      (String.concat ", "
         (List.map (fun s -> s.Flight.src_label) sources))
      total (List.length rids)
      (match rid with
      | Some id -> Printf.sprintf ", filtered to rid %s" id
      | None -> "")
      (if out = "-" then "" else Printf.sprintf " -> %s" out);
    if total = 0 then exit 3
  in
  let rid_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "rid" ] ~docv:"RID"
          ~doc:
            "Keep only records of this request id (e.g. the p99 exemplar \
             from $(b,sufdec top)); default keeps every record.")
  in
  let out_arg =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:
            "Output file for the Chrome trace (open in chrome://tracing \
             or Perfetto); '-' writes it to stdout.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Assemble one cross-process Chrome trace from a running server or \
          fleet: fetch every process's flight-recorder dump over the \
          protocol's dump op, align their clocks via the dumps' wall/mono \
          anchor pairs, and merge the records into a single timeline with \
          one lane per process.")
    Term.(const run $ socket_arg $ rid_arg $ out_arg)

let loadgen_cmd =
  let run clients repeats workers method_ timeout fleet json_out min_speedup =
    let target =
      match fleet with
      | Some path -> Sepsat_harness.Loadgen.Fleet path
      | None -> Sepsat_harness.Loadgen.In_process
    in
    let config =
      {
        Sepsat_harness.Loadgen.default with
        Sepsat_harness.Loadgen.clients;
        repeats;
        workers;
        method_;
        timeout_s = timeout;
        target;
      }
    in
    let report = Sepsat_harness.Loadgen.run config in
    Format.printf "%a" Sepsat_harness.Loadgen.pp report;
    (match json_out with
    | Some path ->
      Sepsat_harness.Loadgen.write_json path report;
      Format.printf "report written to %s@." path
    | None -> ());
    let r = report in
    if r.Sepsat_harness.Loadgen.r_mismatches <> [] then exit 1;
    if r.Sepsat_harness.Loadgen.r_errors > 0 then exit 1;
    match min_speedup with
    | Some m when r.Sepsat_harness.Loadgen.r_speedup < m ->
      Format.eprintf "cache-hit speedup %.1fx below required %.1fx@."
        r.Sepsat_harness.Loadgen.r_speedup m;
      exit 1
    | _ -> ()
  in
  let clients_arg =
    Arg.(
      value & opt int 4
      & info [ "clients" ] ~docv:"N" ~doc:"Concurrent client domains.")
  in
  let repeats_arg =
    Arg.(
      value & opt int 3
      & info [ "repeats" ] ~docv:"K"
          ~doc:"Workload passes per client (>= 2 exercises the cache).")
  in
  let workers_arg =
    Arg.(
      value & opt int 2
      & info [ "workers" ] ~docv:"N" ~doc:"Engine worker domains.")
  in
  let fleet_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "fleet" ] ~docv:"SOCKET"
          ~doc:
            "Drive a running server or fleet router at $(docv) over the \
             JSON-lines protocol instead of an in-process engine; clients \
             become I/O-bound threads, so their count may exceed the \
             cores — the p99-under-load mode.")
  in
  let json_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "json" ] ~docv:"FILE" ~doc:"Write the throughput report as JSON.")
  in
  let min_speedup_arg =
    Arg.(
      value
      & opt (some float) None
      & info [ "min-speedup" ] ~docv:"X"
          ~doc:"Fail unless cache hits are at least $(docv) times faster \
                than cold solves.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Benchmark the serving engine in-process: concurrent clients over \
          a repeated suite workload; verifies concurrent verdicts against \
          a sequential pass and reports cold vs cache-hit latency.")
    Term.(
      const run $ clients_arg $ repeats_arg $ workers_arg $ method_arg
      $ timeout_arg $ fleet_arg $ json_arg $ min_speedup_arg)

(* -- fleet: router + supervised backend shards ----------------------------- *)

let fleet_cmd =
  let run socket backends dir cache_dir workers queue cache timeout
      warm_limit obs_finish =
    let path =
      match socket with
      | Some p -> p
      | None ->
        Format.eprintf "fleet requires --socket PATH@.";
        exit 2
    in
    if backends < 1 then begin
      Format.eprintf "fleet requires --backends >= 1@.";
      exit 2
    end;
    Sepsat_fleet.Fleet.run
      {
        Sepsat_fleet.Fleet.f_socket = path;
        f_backends = backends;
        f_dir = dir;
        f_cache_dir = cache_dir;
        f_workers = workers;
        f_queue = queue;
        f_cache = cache;
        f_timeout_s = timeout;
        f_warm_limit = warm_limit;
        f_exe = None;
      };
    obs_finish ()
  in
  let backends_arg =
    Arg.(
      value & opt int 3
      & info [ "backends" ] ~docv:"N" ~doc:"Supervised sufdec serve shards.")
  in
  let dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "dir" ] ~docv:"DIR"
          ~doc:"Runtime dir for backend sockets (default: SOCKET.d).")
  in
  let cache_dir_arg =
    Arg.(
      value
      & opt (some string) None
      & info [ "cache-dir" ] ~docv:"DIR"
          ~doc:
            "Persistent verdict cache (append-only verdicts.jsonl): repeat \
             formulas answer from disk across fleet restarts, and each \
             backend's in-memory cache is warmed from it on (re)start. \
             Omitted: no disk tier.")
  in
  let workers_arg =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ] ~docv:"N"
          ~doc:
            "Worker domains per backend (default: (cores - 1) / backends, \
             at least 1).")
  in
  let queue_arg =
    Arg.(
      value & opt int 64
      & info [ "queue" ] ~docv:"N" ~doc:"Per-backend request-queue capacity.")
  in
  let cache_arg =
    Arg.(
      value & opt int 1024
      & info [ "cache" ] ~docv:"N"
          ~doc:"Per-backend in-memory result-cache capacity.")
  in
  let timeout_arg' =
    Arg.(
      value & opt float 30.
      & info [ "t"; "timeout" ] ~docv:"SECONDS"
          ~doc:"Default per-request budget passed to each backend.")
  in
  let warm_limit_arg =
    Arg.(
      value & opt int 4096
      & info [ "warm-limit" ] ~docv:"N"
          ~doc:
            "Max cached verdicts replayed into a backend when it \
             (re)starts.")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:
         "Serve through a consistent-hash router over N supervised sufdec \
          serve shards: one public socket, the same JSON-lines protocol, \
          digest-affine routing, crash restarts with backoff, in-flight \
          re-dispatch, and an optional restart-surviving verdict cache.")
    Term.(
      const run $ socket_arg $ backends_arg $ dir_arg $ cache_dir_arg
      $ workers_arg $ queue_arg $ cache_arg $ timeout_arg' $ warm_limit_arg
      $ obs_term)

let list_cmd =
  let run () =
    List.iter
      (fun (b : Suite.benchmark) ->
        let ctx = Ast.create_ctx () in
        let f = b.Suite.build ctx in
        Format.printf "%-10s %-14s %6d nodes%s@." b.Suite.name
          (Suite.family_name b.Suite.family)
          (Ast.size f)
          (if b.Suite.invariant_checking then "  [invariant-checking]" else ""))
      Suite.benchmarks
  in
  Cmd.v
    (Cmd.info "list" ~doc:"List the built-in benchmark suite.")
    Term.(const run $ const ())

let () =
  let info =
    Cmd.info "sufdec" ~version:"1.0.0"
      ~doc:
        "Hybrid SAT-based decision procedure for separation logic with \
         uninterpreted functions (Seshia, Lahiri, Bryant; DAC 2003)."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            solve_cmd; smt_cmd; stats_cmd; cnf_cmd; gen_cmd; list_cmd;
            serve_cmd; submit_cmd; top_cmd; trace_cmd; loadgen_cmd; fleet_cmd;
          ]))
