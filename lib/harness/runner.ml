module Ast = Sepsat_suf.Ast
module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline
module Solver = Sepsat_sat.Solver
module Hybrid = Sepsat_encode.Hybrid
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics

type outcome = Completed | Timed_out | Blew_up

type row = {
  bench : string;
  family : string;
  invariant_checking : bool;
  method_ : Decide.method_;
  size : int;
  sep_cnt : int;
  verdict : Verdict.t;
  outcome : outcome;
  total_time : float;
  wall_time : float;
  translate_time : float;
  sat_time : float;
  cnf_clauses : int;
  conflicts : int;
  decisions : int;
  propagations : int;
  trans_constraints : int;
  phase_times : (string * float) list;
  alloc_words : float;
  major_words : float;
  heap_words : int;
}

(* Every [run] appends its row here (newest first), so experiments render
   their tables as before while the bench driver exports the same
   measurements as machine-readable JSON afterwards. *)
let recorded : row list ref = ref []

let reset_recorded () = recorded := []

let recorded_rows () = List.rev !recorded

(* The separation-predicate estimate is a property of the formula, not of
   the method, so compute it through the standard pipeline. *)
let sep_count ctx formula =
  let elim = Sepsat_suf.Elim.eliminate ctx formula in
  let normalized = Sepsat_sep.Normal.normalize ctx elim.Sepsat_suf.Elim.formula in
  let classes =
    Sepsat_sep.Classes.build ~p_consts:elim.Sepsat_suf.Elim.p_consts normalized
  in
  Sepsat_sep.Classes.total_sep_cnt classes

let run ?(deadline_s = 30.) method_ (bench : Suite.benchmark) =
  let ctx = Ast.create_ctx () in
  let formula = bench.Suite.build ctx in
  let size = Ast.size formula in
  let sep_cnt = sep_count ctx formula in
  let deadline = Deadline.after deadline_s in
  (* [Gc.quick_stat] reads counters without forcing a collection, so the
     allocation/heap deltas are cheap enough to record on every row. *)
  let g0 = Gc.quick_stat () in
  let w0 = Deadline.wall_now () in
  let r =
    Obs.span ~cat:"bench"
      (Printf.sprintf "%s/%s" bench.Suite.name
         (Format.asprintf "%a" Decide.pp_method method_))
      (fun () -> Decide.decide ~method_ ~deadline ctx formula)
  in
  let w1 = Deadline.wall_now () in
  let g1 = Gc.quick_stat () in
  let alloc_words =
    g1.Gc.minor_words +. g1.Gc.major_words -. g1.Gc.promoted_words
    -. (g0.Gc.minor_words +. g0.Gc.major_words -. g0.Gc.promoted_words)
  in
  let outcome =
    match r.Decide.verdict with
    | Verdict.Valid | Verdict.Invalid _ -> Completed
    | Verdict.Unknown "translation blowup" -> Blew_up
    | Verdict.Unknown _ -> Timed_out
  in
  let row =
    {
      bench = bench.Suite.name;
      family = Suite.family_name bench.Suite.family;
      invariant_checking = bench.Suite.invariant_checking;
      method_;
      size;
      sep_cnt;
      verdict = r.Decide.verdict;
      outcome;
      total_time = r.Decide.total_time;
      wall_time = w1 -. w0;
      translate_time = r.Decide.translate_time;
      sat_time = r.Decide.sat_time;
      cnf_clauses = r.Decide.cnf_clauses;
      conflicts =
        (match r.Decide.sat_stats with
        | Some st -> st.Solver.conflicts
        | None -> 0);
      decisions =
        (match r.Decide.sat_stats with
        | Some st -> st.Solver.decisions
        | None -> 0);
      propagations =
        (match r.Decide.sat_stats with
        | Some st -> st.Solver.propagations
        | None -> 0);
      trans_constraints =
        (match r.Decide.encode_stats with
        | Some es -> es.Hybrid.trans_constraints
        | None -> 0);
      phase_times = r.Decide.phase_times;
      alloc_words;
      major_words = g1.Gc.major_words -. g0.Gc.major_words;
      heap_words = g1.Gc.heap_words;
    }
  in
  recorded := row :: !recorded;
  row

let penalized_time ~deadline_s row =
  match row.outcome with
  | Completed -> row.total_time
  | Timed_out | Blew_up -> deadline_s

let normalized_time ~deadline_s row =
  penalized_time ~deadline_s row /. (float_of_int (max row.size 1) /. 1000.)

(* -- Machine-readable export ------------------------------------------------ *)

module Json = Sepsat_util.Json

let verdict_label = function
  | Verdict.Valid -> "valid"
  | Verdict.Invalid _ -> "invalid"
  | Verdict.Unknown _ -> "unknown"

let outcome_label = function
  | Completed -> "completed"
  | Timed_out -> "timeout"
  | Blew_up -> "blowup"

let num_int i = Json.Num (float_of_int i)

let row_to_json row =
  Json.Obj
    [
      ("bench", Json.Str row.bench);
      ("family", Json.Str row.family);
      ("method", Json.Str (Format.asprintf "%a" Decide.pp_method row.method_));
      ("verdict", Json.Str (verdict_label row.verdict));
      ("outcome", Json.Str (outcome_label row.outcome));
      ("wall_time", Json.Num row.wall_time);
      ("cpu_time", Json.Num row.total_time);
      ("translate_time", Json.Num row.translate_time);
      ("sat_time", Json.Num row.sat_time);
      ( "phase_times",
        Json.Obj (List.map (fun (name, t) -> (name, Json.Num t)) row.phase_times)
      );
      ("size", num_int row.size);
      ("sep_cnt", num_int row.sep_cnt);
      ("cnf_clauses", num_int row.cnf_clauses);
      ("conflicts", num_int row.conflicts);
      ("decisions", num_int row.decisions);
      ("propagations", num_int row.propagations);
      ( "gc",
        Json.Obj
          [
            ("alloc_words", Json.Num row.alloc_words);
            ("major_words", Json.Num row.major_words);
            ("heap_words", num_int row.heap_words);
          ] );
    ]

(* Schema 2: the run array moved under "runs" to make room for process-wide
   GC telemetry and the observability metrics registry snapshot. *)
let report_to_json rows =
  let g = Gc.quick_stat () in
  Json.Obj
    [
      ("schema", Json.Num 2.);
      ("runs", Json.Arr (List.map row_to_json rows));
      ( "gc",
        Json.Obj
          [
            ("minor_words", Json.Num g.Gc.minor_words);
            ("major_words", Json.Num g.Gc.major_words);
            ("promoted_words", Json.Num g.Gc.promoted_words);
            ("minor_collections", num_int g.Gc.minor_collections);
            ("major_collections", num_int g.Gc.major_collections);
            ("heap_words", num_int g.Gc.heap_words);
            ("top_heap_words", num_int g.Gc.top_heap_words);
            ("compactions", num_int g.Gc.compactions);
          ] );
      ("metrics", Metrics.to_json ());
    ]

let write_json path rows =
  let oc = open_out path in
  output_string oc (Json.to_string (report_to_json rows));
  output_char oc '\n';
  close_out oc
