(* The offline workloads (frontend, search, certified): formulas decided
   in-process through the public entry points, one at a time. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Elim = Sepsat_suf.Elim
module Verdict = Sepsat_sep.Verdict
module Hybrid = Sepsat_encode.Hybrid
module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Proof = Sepsat_sat.Proof
module Drup_check = Sepsat_sat.Drup_check
module Decide = Sepsat.Decide
module Certify = Sepsat_check.Certify
module Spans = Report.Spans
open Inputs

let now = Report.now

let parse (it : item) =
  let ctx = Ast.create_ctx () in
  (ctx, Parse.formula ctx it.text)

let verdict_name = function
  | Verdict.Valid -> "valid"
  | Verdict.Invalid _ -> "invalid"
  | Verdict.Unknown why -> "unknown (" ^ why ^ ")"

let is_valid = function Verdict.Valid -> true | _ -> false

(* Decides one item (plus Certify.check when the item is certified) and
   judges the answer against the known one; the tally records failures. *)
let decide_op tally (it : item) (ctx, formula) =
  (* Every operation starts after a full major collection, so the garbage
     of the one before it is not charged to it. *)
  Gc.full_major ();
  let t0 = now () in
  let r = Decide.decide ~method_:it.method_ ~certify:it.certify ctx formula in
  let t1 = now () in
  let cert =
    if it.certify then Some (Certify.check ~expect_proof:true formula r)
    else None
  in
  let t2 = now () in
  tally.Report.attempted <- tally.Report.attempted + 1;
  (match (r.Decide.verdict, cert) with
  | Verdict.Unknown why, _ -> Report.fail tally it.name ("unknown: " ^ why)
  | v, _ when is_valid v <> it.valid ->
    Report.fail ~wrong:true tally it.name ("wrong verdict " ^ verdict_name v)
  | _, Some (Error e) ->
    Report.fail ~wrong:true tally it.name
      (Format.asprintf "certificate rejected: %a" Certify.pp_error e)
  | _, (Some (Ok _) | None) -> ());
  (r, t1 -. t0, t2 -. t1)

(* Untraced: [passes] passes over the fixed set, parsing every text afresh
   before each pass (the set-up, timed [setup_repeats] times per pass).
   The work is fixed, so every run attempts the same operations whatever
   its speed; [seconds] is only a safety ceiling: a run that takes four
   times as long stops at a pass boundary and says so. An item's time is
   the fastest of its passes: on a shared host, contention only ever adds
   time, so the fastest pass is the least disturbed one, and it varies far
   less from run to run than the median of a few passes. *)
let setup_repeats = 5

let run ~passes ~seconds items =
  let tally = Report.tally () in
  let samples = Array.make (Array.length items) [] in
  let setups = ref [] in
  let start = now () in
  let setup () =
    Gc.full_major ();
    let t0 = now () in
    let parsed = Array.map parse items in
    setups := (now () -. t0) :: !setups;
    parsed
  in
  let rec pass done_ =
    if done_ = passes then done_
    else if done_ > 0 && now () -. start > 4. *. seconds then begin
      Printf.eprintf "stopped after %d of %d passes: over %.0f s\n" done_
        passes (4. *. seconds);
      done_
    end
    else begin
      for _ = 2 to setup_repeats do ignore (setup ()) done;
      let parsed = setup () in
      Array.iteri
        (fun i it ->
          Report.Host.probe ();
          let _, decide_s, check_s = decide_op tally it parsed.(i) in
          samples.(i) <- (decide_s +. check_s) :: samples.(i))
        items;
      pass (done_ + 1)
    end
  in
  let done_ = pass 0 in
  let fastest = Array.map (List.fold_left min infinity) samples in
  let per_item = Array.to_list fastest in
  let ms = List.map (fun s -> s *. 1000.) per_item in
  Printf.eprintf "passes=%d ops=%d in %.1f s\n" done_ tally.Report.attempted
    (now () -. start);
  Array.iteri
    (fun i it ->
      Printf.eprintf "  %-24s fastest=%.1f ms samples=%s\n" it.name
        (fastest.(i) *. 1000.)
        (String.concat "," (List.rev_map (Printf.sprintf "%.4f") samples.(i))))
    items;
  Report.raw_and_scaled tally
    [
      ("setup_s", "s", Report.median !setups);
      ("wall_s", "s", Report.sum per_item);
      ("geomean_ms", "ms", Report.geomean ms);
      ("latency_ms.p50", "ms", Report.median ms);
      ("latency_ms.p99", "ms", Report.quantile 0.99 ms);
    ]
    [ ("peak_rss_mb", "MB", Report.vm_hwm_mb "self") ]

(* Per-layer counts summed over one traced pass. *)
type counts = {
  mutable bool_size : int;
  mutable eij_predicates : int;
  mutable trans_constraints : int;
  mutable sd_classes : int;
  mutable eij_classes : int;
  mutable blowups : int;
  mutable clauses : int;
  mutable conflicts : int;
  mutable decisions : int;
  mutable propagations : int;
  mutable proof_steps : int;
  mutable bytes : int;
}

let counts () =
  {
    bool_size = 0; eij_predicates = 0; trans_constraints = 0; sd_classes = 0;
    eij_classes = 0; blowups = 0; clauses = 0; conflicts = 0; decisions = 0;
    propagations = 0; proof_steps = 0; bytes = 0;
  }

let config_of = function
  | Decide.Sd -> Hybrid.sd_only
  | Decide.Eij -> Hybrid.eij_only
  | Decide.Hybrid_at t -> Hybrid.hybrid ~threshold:t ()
  | _ -> Hybrid.default

(* Decide's eager pipeline replayed from outside, one public call per
   layer, each inside a span. Returns the verdict it reaches. *)
let replay c ~op (it : item) =
  let ctx = Ast.create_ctx () in
  let formula =
    Spans.with_ ~op ~parent:0 "suf.parse" (fun _ -> Parse.formula ctx it.text)
  in
  c.bytes <- c.bytes + String.length it.text;
  ignore (Spans.with_ ~op ~parent:0 "suf.digest" (fun _ -> Ast.digest formula));
  Spans.with_ ~op ~parent:0 "decide" @@ fun parent ->
  let span name f = Spans.with_ ~op ~parent name (fun _ -> f ()) in
  let elim = span "suf.elim" (fun () -> Elim.eliminate ctx formula) in
  match
    span "encode" (fun () ->
        Hybrid.encode ~config:(config_of it.method_) ctx
          ~p_consts:elim.Elim.p_consts elim.Elim.formula)
  with
  | exception Hybrid.Translation_blowup ->
    c.blowups <- c.blowups + 1;
    (Verdict.Unknown "translation blowup", true)
  | enc ->
    let st = enc.Hybrid.stats in
    c.bool_size <- c.bool_size + st.Hybrid.bool_size;
    c.eij_predicates <- c.eij_predicates + st.Hybrid.eij_predicates;
    c.trans_constraints <- c.trans_constraints + st.Hybrid.trans_constraints;
    c.sd_classes <- c.sd_classes + st.Hybrid.sd_classes;
    c.eij_classes <- c.eij_classes + st.Hybrid.eij_classes;
    let solver, tseitin, proof =
      span "cnf" (fun () ->
          let solver = Solver.create () in
          Solver.set_simplify solver (Decide.simplify_default ());
          let proof =
            if it.certify then Some (Solver.start_proof solver) else None
          in
          let mode = if it.certify then Tseitin.Full else Tseitin.Polarity in
          let tseitin = Tseitin.create ~mode solver in
          Tseitin.assert_root tseitin
            (F.not_ enc.Hybrid.prop_ctx enc.Hybrid.f_bool);
          (solver, tseitin, proof))
    in
    c.clauses <- c.clauses + Tseitin.clauses_added tseitin;
    let outcome = span "sat" (fun () -> Solver.solve solver) in
    let st = Solver.stats solver in
    c.conflicts <- c.conflicts + st.Solver.conflicts;
    c.decisions <- c.decisions + st.Solver.decisions;
    c.propagations <- c.propagations + st.Solver.propagations;
    let verdict =
      match outcome with
      | Solver.Unsat -> Verdict.Valid
      | Solver.Unknown -> Verdict.Unknown "timeout"
      | Solver.Sat ->
        let assign i =
          match Tseitin.find_var tseitin i with
          | Some lit -> Solver.value solver lit
          | None -> false
        in
        Verdict.Invalid (enc.Hybrid.decode assign)
    in
    let proof_ok =
      match (verdict, proof) with
      | Verdict.Valid, Some p ->
        c.proof_steps <- c.proof_steps + Proof.n_steps p;
        span "check.drup" (fun () -> Drup_check.check (Proof.steps p))
        = Drup_check.Certified
      | _ -> true
    in
    (verdict, proof_ok)

let same_verdict a b =
  match (a, b) with
  | Verdict.Valid, Verdict.Valid | Verdict.Invalid _, Verdict.Invalid _ -> true
  | Verdict.Unknown x, Verdict.Unknown y -> x = y
  | _ -> false

(* Traced: one pass over the fixed set. Each item is decided untraced (its
   time and verdict are the reference) and then replayed layer by layer. *)
let traced items =
  let tally = Report.tally () in
  let c = counts () in
  let untraced = ref 0. in
  Array.iteri
    (fun i it ->
      let op = i + 1 in
      (* An untimed first decide grows the heap, so neither timed run below
         pays for that and the two compare fairly. *)
      (let ctx, formula = parse it in
       ignore
         (Decide.decide ~method_:it.method_ ~certify:it.certify ctx formula));
      let ((_, formula) as parsed) = parse it in
      let r, decide_s, _ = decide_op tally it parsed in
      untraced := !untraced +. decide_s;
      Gc.full_major ();
      let t0 = now () in
      let verdict, proof_ok = replay c ~op it in
      Printf.eprintf "  %-24s untraced %.1f ms, replay %.1f ms\n" it.name
        (decide_s *. 1000.) ((now () -. t0) *. 1000.);
      if it.certify then
        ignore
          (Spans.with_ ~op ~parent:0 "check.witness" (fun _ ->
               Certify.check ~expect_proof:true formula r));
      if not (same_verdict verdict r.Decide.verdict) then
        Report.fail ~wrong:true tally it.name
          (Printf.sprintf "replay verdict %s differs from decide's %s"
             (verdict_name verdict) (verdict_name r.Decide.verdict));
      if not proof_ok then
        Report.fail ~wrong:true tally it.name "replayed DRUP trace rejected")
    items;
  let ms name = Spans.total name *. 1000. in
  let layers =
    List.fold_left
      (fun acc n -> acc +. ms n)
      0. [ "suf.elim"; "encode"; "cnf"; "sat"; "check.drup" ]
  in
  let untraced_ms = !untraced *. 1000. in
  let fi = float_of_int in
  ( tally,
    [
      ("suf.parse_ms", "ms", ms "suf.parse");
      ( "suf.parse_mb_per_s", "MB/s",
        Report.ratio (fi c.bytes /. 1e6) (Spans.total "suf.parse") );
      ("suf.digest_ms", "ms", ms "suf.digest");
      ("suf.elim_ms", "ms", ms "suf.elim");
      ("encode.ms", "ms", ms "encode");
      ("encode.bool_size", "count", fi c.bool_size);
      ("encode.eij_predicates", "count", fi c.eij_predicates);
      ("encode.trans_constraints", "count", fi c.trans_constraints);
      ("encode.sd_classes", "count", fi c.sd_classes);
      ("encode.eij_classes", "count", fi c.eij_classes);
      ("encode.blowups", "count", fi c.blowups);
      ("cnf.ms", "ms", ms "cnf");
      ("cnf.clauses", "count", fi c.clauses);
      ( "cnf.clauses_per_s", "1/s",
        Report.ratio (fi c.clauses) (Spans.total "cnf") );
      ("sat.ms", "ms", ms "sat");
      ("sat.conflicts", "count", fi c.conflicts);
      ("sat.decisions", "count", fi c.decisions);
      ("sat.propagations", "count", fi c.propagations);
      ( "sat.props_per_s", "1/s",
        Report.ratio (fi c.propagations) (Spans.total "sat") );
      ("check.drup_ms", "ms", ms "check.drup");
      ("check.proof_steps", "count", fi c.proof_steps);
      ( "check.drup_steps_per_s", "1/s",
        Report.ratio (fi c.proof_steps) (Spans.total "check.drup") );
      ("check.witness_ms", "ms", ms "check.witness");
      ( "check.drup_over_sat", "ratio",
        Report.ratio (ms "check.drup") (ms "sat") );
      ("decide.unattributed_ms", "ms", untraced_ms -. layers);
      ( "decide.unattributed_share", "ratio",
        Report.ratio (untraced_ms -. layers) untraced_ms );
      ("trace.overhead", "ratio", Report.ratio (ms "decide") untraced_ms);
      (* The workload's layer profile, as shares of untraced decide time. *)
      ( "profile.encode_cnf_share", "ratio",
        Report.ratio (ms "encode" +. ms "cnf") untraced_ms );
      ("profile.sat_share", "ratio", Report.ratio (ms "sat") untraced_ms);
      ( "profile.drup_share", "ratio",
        Report.ratio (ms "check.drup") untraced_ms );
    ] )
