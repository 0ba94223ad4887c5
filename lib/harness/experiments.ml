module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict

let default_deadline = 30.

let pp_time ppf (row : Runner.row) =
  match row.Runner.outcome with
  | Runner.Completed -> Format.fprintf ppf "%8.2f" row.Runner.total_time
  | Runner.Timed_out -> Format.fprintf ppf "%8s" "t/o"
  | Runner.Blew_up -> Format.fprintf ppf "%8s" "blowup"

let pp_verdict_short ppf (row : Runner.row) =
  match row.Runner.verdict with
  | Verdict.Valid -> Format.pp_print_string ppf "valid"
  | Verdict.Invalid _ -> Format.pp_print_string ppf "INVALID"
  | Verdict.Unknown _ -> Format.pp_print_string ppf "?"

(* -- Figure 2 ------------------------------------------------------------ *)

let figure2_benchmarks = [ "pipe.3"; "pipe.5"; "cache.5"; "cache.6"; "tv.1" ]

let figure2 ?(deadline_s = default_deadline) ppf =
  Format.fprintf ppf
    "== Figure 2: effect of encoding on the SAT solver (SD vs EIJ) ==@.";
  Format.fprintf ppf "%-10s %12s %12s %12s %12s %10s %10s@." "Benchmark"
    "CNF(SD)" "CNF(EIJ)" "Confl(SD)" "Confl(EIJ)" "SAT(SD)" "SAT(EIJ)";
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some bench ->
        let sd = Runner.run ~deadline_s Decide.Sd bench in
        let eij = Runner.run ~deadline_s Decide.Eij bench in
        Format.fprintf ppf "%-10s %12d %12d %12d %12d %9.2fs %9.2fs@." name
          sd.Runner.cnf_clauses eij.Runner.cnf_clauses sd.Runner.conflicts
          eij.Runner.conflicts sd.Runner.sat_time eij.Runner.sat_time)
    figure2_benchmarks;
  Format.fprintf ppf
    "(expected shape: EIJ has more CNF clauses but fewer conflict clauses@.\
    \ and lower SAT time than SD on each benchmark)@.@."

(* -- Figure 3 ------------------------------------------------------------ *)

let sample_rows ?(deadline_s = default_deadline) method_ =
  List.map (fun bench -> Runner.run ~deadline_s method_ bench) Suite.sample16

let figure3 ?(deadline_s = default_deadline) ppf =
  Format.fprintf ppf
    "== Figure 3: normalized time vs number of separation predicates ==@.";
  let sd = sample_rows ~deadline_s Decide.Sd in
  let eij = sample_rows ~deadline_s Decide.Eij in
  Format.fprintf ppf "%-10s %10s %14s %14s %8s@." "Benchmark" "SepPreds"
    "SD(s/Knode)" "EIJ(s/Knode)" "EIJ";
  let sorted = List.sort (fun a b -> compare a.Runner.sep_cnt b.Runner.sep_cnt) sd in
  List.iter
    (fun (sdr : Runner.row) ->
      let eijr = List.find (fun r -> r.Runner.bench = sdr.Runner.bench) eij in
      Format.fprintf ppf "%-10s %10d %14.3f %14.3f %8s@." sdr.Runner.bench
        sdr.Runner.sep_cnt
        (Runner.normalized_time ~deadline_s sdr)
        (Runner.normalized_time ~deadline_s eijr)
        (match eijr.Runner.outcome with
        | Runner.Completed -> "ok"
        | Runner.Timed_out -> "t/o"
        | Runner.Blew_up -> "blowup"))
    sorted;
  let series m rows =
    {
      Ascii_plot.label = m;
      glyph = (if m = "SD" then 'o' else '+');
      points =
        List.map
          (fun (r : Runner.row) ->
            ( float_of_int (max 1 r.Runner.sep_cnt),
              Runner.normalized_time ~deadline_s r ))
          rows;
    }
  in
  Ascii_plot.scatter ~diagonal:false ~xlabel:"separation predicates"
    ~ylabel:"normalized total time (s/Knode)" ppf
    [ series "SD" sd; series "EIJ" eij ];
  Format.fprintf ppf
    "(expected shape: EIJ grows with the predicate count and fails beyond@.\
    \ a threshold; SD stays bounded)@.@."

(* -- SEP_THOLD selection (paper 4.1) -------------------------------------- *)

let threshold_selection ?(deadline_s = default_deadline) ppf =
  Format.fprintf ppf "== SEP_THOLD selection by 1-D variance clustering ==@.";
  let eij = sample_rows ~deadline_s Decide.Eij in
  let samples =
    List.map
      (fun (r : Runner.row) ->
        (r.Runner.sep_cnt, Runner.normalized_time ~deadline_s r))
      eij
  in
  let threshold = Cluster.select_threshold samples in
  let sorted = List.sort (fun (_, a) (_, b) -> compare a b) samples in
  Format.fprintf ppf "sorted (sep predicates, normalized time):@.";
  List.iter (fun (n, t) -> Format.fprintf ppf "  %6d %10.3f@." n t) sorted;
  Format.fprintf ppf "selected SEP_THOLD = %d (paper: 700)@.@." threshold;
  threshold

(* -- Scatter comparisons (Figures 4-6) ------------------------------------ *)

let comparison ~title ~benchmarks ~base_method ~base_name ~others ~deadline_s
    ppf =
  Format.fprintf ppf "== %s ==@." title;
  let base = List.map (fun b -> Runner.run ~deadline_s base_method b) benchmarks in
  let other_rows =
    List.map
      (fun (name, m) ->
        (name, List.map (fun b -> Runner.run ~deadline_s m b) benchmarks))
      others
  in
  Format.fprintf ppf "%-10s %6s %8s %9s" "Benchmark" "size" "verdict" base_name;
  List.iter (fun (name, _) -> Format.fprintf ppf " %9s" name) other_rows;
  Format.fprintf ppf "@.";
  List.iteri
    (fun i (b : Runner.row) ->
      let verdict = Format.asprintf "%a" pp_verdict_short b in
      Format.fprintf ppf "%-10s %6d %8s %a" b.Runner.bench b.Runner.size
        verdict pp_time b;
      List.iter
        (fun (_, rows) -> Format.fprintf ppf " %a" pp_time (List.nth rows i))
        other_rows;
      Format.fprintf ppf "@.")
    base;
  let glyphs = [ '+'; 'o'; 'x' ] in
  let series =
    List.mapi
      (fun i (name, rows) ->
        {
          Ascii_plot.label = name;
          glyph = List.nth glyphs (i mod List.length glyphs);
          points =
            List.map2
              (fun (b : Runner.row) (r : Runner.row) ->
                ( Runner.penalized_time ~deadline_s b,
                  Runner.penalized_time ~deadline_s r ))
              base rows;
        })
      other_rows
  in
  Ascii_plot.scatter ~diagonal:true
    ~xlabel:(Printf.sprintf "total time for %s (s)" base_name)
    ~ylabel:"total time for competitor (s)" ppf series;
  Format.fprintf ppf
    "(points above the diagonal: %s wins; below: the competitor wins)@.@."
    base_name

let figure4 ?(deadline_s = default_deadline) ppf =
  comparison
    ~title:
      "Figure 4: HYBRID vs SD and EIJ (39 non-invariant benchmarks, default \
       SEP_THOLD)"
    ~benchmarks:Suite.non_invariant
    ~base_method:(Decide.Hybrid_at Sepsat_encode.Hybrid.default_threshold)
    ~base_name:"HYBRID"
    ~others:[ ("SD", Decide.Sd); ("EIJ", Decide.Eij) ]
    ~deadline_s ppf

let hybrid_benchmarks =
  [
    "pipe.3"; "pipe.5"; "cache.5"; "lsu.3"; "tv.1";
    "batch.1"; "batch.3"; "batch.4";
  ]

let figure_hybrid ?(deadline_s = default_deadline) ppf =
  Format.fprintf ppf
    "== HYBRID(%d) per-phase timings (suite and batch benchmarks) ==@."
    Sepsat_encode.Hybrid.default_threshold;
  Format.fprintf ppf "%-10s %6s %8s %8s %9s %9s %9s %9s@." "Benchmark" "size"
    "verdict" "total" "elim" "encode" "cnf" "sat";
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some bench ->
        let r = Runner.run ~deadline_s Decide.Hybrid_default bench in
        let phase p =
          Option.value ~default:0. (List.assoc_opt p r.Runner.phase_times)
        in
        Format.fprintf ppf "%-10s %6d %8s %a %9.4f %9.4f %9.4f %9.4f@." name
          r.Runner.size
          (Format.asprintf "%a" pp_verdict_short r)
          pp_time r (phase "elim") (phase "encode") (phase "cnf") (phase "sat"))
    hybrid_benchmarks;
  Format.fprintf ppf "@."

let figure5 ?(deadline_s = default_deadline) ppf =
  comparison
    ~title:
      "Figure 5: HYBRID(SEP_THOLD=100) vs SD and EIJ (10 invariant-checking \
       benchmarks)"
    ~benchmarks:Suite.invariant_checking ~base_method:(Decide.Hybrid_at 100)
    ~base_name:"HYBRID"
    ~others:[ ("SD", Decide.Sd); ("EIJ", Decide.Eij) ]
    ~deadline_s ppf

let figure6 ?(deadline_s = default_deadline) ppf =
  comparison
    ~title:"Figure 6: HYBRID vs SVC and CVC-style lazy (39 non-invariant)"
    ~benchmarks:Suite.non_invariant
    ~base_method:(Decide.Hybrid_at Sepsat_encode.Hybrid.default_threshold)
    ~base_name:"HYBRID"
    ~others:[ ("SVC", Decide.Svc_baseline); ("LAZY", Decide.Lazy_baseline) ]
    ~deadline_s ppf

(* -- Ablations ------------------------------------------------------------ *)

(* Pure SD through pure EIJ. *)
let ablation_thresholds = [ 0; 50; 200; 400; 700; 2000; max_int ]

let ablation_threshold ?(deadline_s = default_deadline) ppf =
  Format.fprintf ppf
    "== Ablation: HYBRID total time across SEP_THOLD (cold runs) ==@.";
  let thold_label t = if t = max_int then "inf" else string_of_int t in
  Format.fprintf ppf "%-10s" "Benchmark";
  List.iter
    (fun t -> Format.fprintf ppf " %8s" (thold_label t))
    ablation_thresholds;
  Format.fprintf ppf "@.";
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some bench ->
        Format.fprintf ppf "%-10s" name;
        List.iter
          (fun t ->
            let method_ =
              if t = max_int then Decide.Eij else Decide.Hybrid_at t
            in
            Format.fprintf ppf " %a" pp_time
              (Runner.run ~deadline_s method_ bench))
          ablation_thresholds;
        Format.fprintf ppf "@.")
    [ "pipe.4"; "lsu.4"; "cache.5"; "tv.2"; "drv.4"; "ooo.1" ];
  Format.fprintf ppf
    "(SEP_THOLD = 0 is pure SD, SEP_THOLD = inf is pure EIJ; each cell is@.\
    \ one fresh decide at that threshold)@.@."

let ablation_positive_equality ?(deadline_s = default_deadline) ppf =
  Format.fprintf ppf
    "== Ablation: positive-equality analysis on vs off ==@.";
  Format.fprintf ppf "%-10s %10s %12s %12s %10s %10s@." "Benchmark" "p-consts"
    "size(on)" "size(off)" "time(on)" "time(off)";
  List.iter
    (fun name ->
      match Suite.find name with
      | None -> ()
      | Some bench ->
        let measure ~use_p =
          let ctx = Sepsat_suf.Ast.create_ctx () in
          let f = bench.Suite.build ctx in
          let t0 = Sepsat_util.Deadline.now () in
          let elim = Sepsat_suf.Elim.eliminate ctx f in
          let p_consts =
            if use_p then elim.Sepsat_suf.Elim.p_consts
            else Sepsat_util.Sset.empty
          in
          let enc =
            Sepsat_encode.Hybrid.encode ctx ~p_consts
              elim.Sepsat_suf.Elim.formula
          in
          let solver = Sepsat_sat.Solver.create () in
          let ts = Sepsat_prop.Tseitin.create solver in
          Sepsat_prop.Tseitin.assert_root ts
            (Sepsat_prop.Formula.not_ enc.Sepsat_encode.Hybrid.prop_ctx
               enc.Sepsat_encode.Hybrid.f_bool);
          let outcome =
            Sepsat_sat.Solver.solve
              ~deadline:(Sepsat_util.Deadline.after deadline_s)
              solver
          in
          let t1 = Sepsat_util.Deadline.now () in
          ( Sepsat_util.Sset.cardinal elim.Sepsat_suf.Elim.p_consts,
            enc.Sepsat_encode.Hybrid.stats.Sepsat_encode.Hybrid.bool_size,
            (t1 -. t0, outcome = Sepsat_sat.Solver.Unknown) )
        in
        match (measure ~use_p:true, measure ~use_p:false) with
        | ( (p_count, size_on, (time_on, tmo_on)),
            (_, size_off, (time_off, tmo_off)) ) ->
          let cell (t, tmo) =
            if tmo then "t/o" else Printf.sprintf "%.2f" t
          in
          Format.fprintf ppf "%-10s %10d %12d %12d %10s %10s@." name p_count
            size_on size_off
            (cell (time_on, tmo_on))
            (cell (time_off, tmo_off))
        | exception Sepsat_encode.Hybrid.Translation_blowup ->
          Format.fprintf ppf "%-10s %10s@." name "blowup")
    [ "pipe.3"; "pipe.5"; "lsu.3"; "cache.4"; "tv.2" ];
  Format.fprintf ppf
    "(positive equality folds p-constant comparisons to constants: smaller@.\
    \ encodings and faster search where p-fractions are high)@.@."

let all ?(deadline_s = default_deadline) ppf =
  figure2 ~deadline_s ppf;
  figure3 ~deadline_s ppf;
  ignore (threshold_selection ~deadline_s ppf);
  figure4 ~deadline_s ppf;
  figure5 ~deadline_s ppf;
  figure6 ~deadline_s ppf;
  figure_hybrid ~deadline_s ppf;
  ablation_threshold ~deadline_s ppf;
  ablation_positive_equality ~deadline_s ppf
