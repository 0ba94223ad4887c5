(* Perf-regression baselines: record the suite's per-benchmark wall times,
   re-run later, and decide "did this change make something slower" in a
   way that survives both run-to-run noise and machine-to-machine speed
   differences.

   Noise: each entry keeps the *minimum* wall time over its runs. The
   minimum is the standard low-noise location estimate for benchmark
   timing — interference (GC from a previous run, a scheduler hiccup, a
   cold cache) only ever adds time, so the fastest observed run is the
   closest to the code's intrinsic cost.

   Machine drift: a checked-in baseline is scraped on one machine and
   compared on another, so every comparison first estimates a global
   drift factor — the median of the per-benchmark current/baseline
   ratios — and judges each benchmark against its drift-adjusted
   expectation. A uniformly 2x-slower CI runner moves every ratio to ~2,
   the median absorbs it, and nothing is flagged; a genuine regression
   moves *one* benchmark off the pack and sticks out of the median. The
   median needs a few points to be meaningful, so drift correction only
   engages with >= 4 paired entries. A flagged benchmark must exceed both
   a relative threshold (ratio above drift) and an absolute one (seconds
   above drift-adjusted baseline): the relative test alone would flag
   microsecond jitter on trivial benchmarks, the absolute test alone
   would miss a 10x slowdown of a fast one. *)

module Decide = Sepsat.Decide
module J = Sepsat_util.Json

type entry = {
  e_bench : string;
  e_method : string;  (* Decide.pp_method rendering, as in schema-2 files *)
  e_wall_s : float;  (* min over the aggregated runs *)
  e_runs : int;
  e_phases : (string * float) list;  (* phase times of the fastest run *)
}

let key e = (e.e_bench, e.e_method)

let entry_of_row (r : Runner.row) =
  {
    e_bench = r.Runner.bench;
    e_method = Format.asprintf "%a" Decide.pp_method r.Runner.method_;
    e_wall_s = r.Runner.wall_time;
    e_runs = 1;
    e_phases = r.Runner.phase_times;
  }

let merge a b =
  if b.e_wall_s < a.e_wall_s then
    { b with e_runs = a.e_runs + b.e_runs }
  else { a with e_runs = a.e_runs + b.e_runs }

(* Group by (bench, method), min-of-k wall time, order of first sight. *)
let aggregate entries =
  let tbl = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun e ->
      match Hashtbl.find_opt tbl (key e) with
      | None ->
        Hashtbl.add tbl (key e) e;
        order := key e :: !order
      | Some prev -> Hashtbl.replace tbl (key e) (merge prev e))
    entries;
  List.rev_map (Hashtbl.find tbl) !order

let of_rows rows = aggregate (List.map entry_of_row rows)

let schema = "sepsat-bench-baseline-1"

let write path entries =
  let entry_json e =
    J.Obj
      [
        ("bench", J.Str e.e_bench);
        ("method", J.Str e.e_method);
        ("wall_s", J.Num e.e_wall_s);
        ("runs", J.Num (float_of_int e.e_runs));
        ( "phase_times",
          J.Obj (List.map (fun (n, t) -> (n, J.Num t)) e.e_phases) );
      ]
  in
  let j =
    J.Obj
      [ ("schema", J.Str schema); ("runs", J.Arr (List.map entry_json entries)) ]
  in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (J.to_string j);
      output_char oc '\n')

(* Reads both this module's baseline files and Runner.write_json's schema-2
   reports: either way there is a "runs" array whose elements carry
   "bench", "method", a wall time ("wall_s" here, "wall_time" in schema-2)
   and optionally "phase_times". Schema-2 files repeat a benchmark once per
   recorded run; aggregation takes the min, exactly as [of_rows] does. *)
let read path =
  let text =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match J.parse text with
  | Error e -> Error (Printf.sprintf "%s: %s" path e)
  | Ok j -> (
    match J.member "runs" j with
    | Some (J.Arr runs) -> (
      let parse_run r =
        match
          ( J.mem_str "bench" r,
            Option.fold ~none:(J.mem_num "wall_time" r) ~some:Option.some
              (J.mem_num "wall_s" r) )
        with
        | Some bench, Some wall ->
          let phases =
            match J.member "phase_times" r with
            | Some (J.Obj fields) ->
              List.filter_map
                (fun (n, v) -> Option.map (fun t -> (n, t)) (J.to_num v))
                fields
            | _ -> []
          in
          Ok
            {
              e_bench = bench;
              e_method = Option.value (J.mem_str "method" r) ~default:"";
              e_wall_s = wall;
              e_runs = Option.value (J.mem_int "runs" r) ~default:1;
              e_phases = phases;
            }
        | _ -> Error "run entry lacks \"bench\" or a wall time"
      in
      let rec collect acc = function
        | [] -> Ok (List.rev acc)
        | r :: rest -> (
          match parse_run r with
          | Ok e -> collect (e :: acc) rest
          | Error e -> Error (Printf.sprintf "%s: %s" path e))
      in
      match collect [] runs with
      | Error _ as e -> e
      | Ok entries -> Ok (aggregate entries))
    | _ -> Error (Printf.sprintf "%s: no \"runs\" array" path))

(* -- Comparison ------------------------------------------------------------ *)

type delta = {
  d_bench : string;
  d_method : string;
  d_base_s : float;
  d_cur_s : float;
  d_ratio : float;  (* cur / base, drift not applied *)
  d_adjusted : float;  (* ratio / drift — the judged quantity *)
  d_regressed : bool;
  d_worst_phase : (string * float) option;
      (* phase with the largest absolute growth over drift-adjusted base *)
}

type comparison = {
  c_drift : float;
  c_deltas : delta list;
  c_regressions : delta list;
  c_missing : entry list;  (* in the baseline, absent from the current run *)
  c_new : entry list;
}

let median = function
  | [] -> 1.
  | xs ->
    let a = Array.of_list xs in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2)
    else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio ~base ~cur = if base > 0. then cur /. base else 1.

let worst_phase ~drift ~base ~cur =
  let growth (name, cur_t) =
    let base_t = Option.value (List.assoc_opt name base.e_phases) ~default:0. in
    (name, cur_t -. (base_t *. drift))
  in
  match List.map growth cur.e_phases with
  | [] -> None
  | g :: gs ->
    Some (List.fold_left (fun acc x -> if snd x > snd acc then x else acc) g gs)

let compare_ ?(rel = 0.25) ?(abs_s = 0.05) ~baseline current =
  let find entries k = List.find_opt (fun e -> key e = k) entries in
  let paired =
    List.filter_map
      (fun cur ->
        Option.map (fun base -> (base, cur)) (find baseline (key cur)))
      current
  in
  let ratios =
    List.map (fun (b, c) -> ratio ~base:b.e_wall_s ~cur:c.e_wall_s) paired
  in
  (* Drift needs a population to take a median over; with fewer points the
     median *is* the (few) benchmarks under judgment and would normalize a
     real regression away. *)
  let drift = if List.length paired >= 4 then median ratios else 1. in
  let deltas =
    List.map
      (fun (base, cur) ->
        let r = ratio ~base:base.e_wall_s ~cur:cur.e_wall_s in
        let adjusted = if drift > 0. then r /. drift else r in
        let regressed =
          adjusted > 1. +. rel
          && cur.e_wall_s -. (base.e_wall_s *. drift) > abs_s
        in
        {
          d_bench = cur.e_bench;
          d_method = cur.e_method;
          d_base_s = base.e_wall_s;
          d_cur_s = cur.e_wall_s;
          d_ratio = r;
          d_adjusted = adjusted;
          d_regressed = regressed;
          d_worst_phase =
            (if regressed then worst_phase ~drift ~base ~cur else None);
        })
      paired
  in
  {
    c_drift = drift;
    c_deltas = deltas;
    c_regressions = List.filter (fun d -> d.d_regressed) deltas;
    c_missing =
      List.filter (fun b -> find current (key b) = None) baseline;
    c_new = List.filter (fun c -> find baseline (key c) = None) current;
  }

let regressed c = c.c_regressions <> []

let pp ppf c =
  Format.fprintf ppf "Baseline comparison: %d paired, drift %.3fx@."
    (List.length c.c_deltas) c.c_drift;
  List.iter
    (fun d ->
      Format.fprintf ppf "  %-12s %-14s %8.3fs -> %8.3fs  x%.2f (adj x%.2f)%s@."
        d.d_bench d.d_method d.d_base_s d.d_cur_s d.d_ratio d.d_adjusted
        (if d.d_regressed then "  REGRESSION" else "");
      match d.d_worst_phase with
      | Some (phase, s) when d.d_regressed ->
        Format.fprintf ppf "    worst phase: %s (+%.3fs over baseline)@."
          phase s
      | _ -> ())
    c.c_deltas;
  (match c.c_missing with
  | [] -> ()
  | ms ->
    Format.fprintf ppf "  missing from this run (%d):" (List.length ms);
    List.iter (fun e -> Format.fprintf ppf " %s/%s" e.e_bench e.e_method) ms;
    Format.fprintf ppf "@.");
  (match c.c_new with
  | [] -> ()
  | ns ->
    Format.fprintf ppf "  not in the baseline (%d):" (List.length ns);
    List.iter (fun e -> Format.fprintf ppf " %s/%s" e.e_bench e.e_method) ns;
    Format.fprintf ppf "@.");
  if c.c_regressions = [] then Format.fprintf ppf "  no regressions@."
  else
    Format.fprintf ppf "  %d regression(s)@." (List.length c.c_regressions)
