module Ast = Sepsat_suf.Ast
module Elim = Sepsat_suf.Elim
module Verdict = Sepsat_sep.Verdict
module Hybrid = Sepsat_encode.Hybrid
module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Deadline = Sepsat_util.Deadline
module Svc = Sepsat_baselines.Svc
module Lazy_smt = Sepsat_baselines.Lazy_smt
module Obs = Sepsat_obs.Obs

type method_ =
  | Sd
  | Eij
  | Hybrid_default
  | Hybrid_at of int
  | Svc_baseline
  | Lazy_baseline

let pp_method ppf = function
  | Sd -> Format.pp_print_string ppf "SD"
  | Eij -> Format.pp_print_string ppf "EIJ"
  | Hybrid_default ->
    Format.fprintf ppf "HYBRID(%d)" Hybrid.default_threshold
  | Hybrid_at t -> Format.fprintf ppf "HYBRID:%d" t
  | Svc_baseline -> Format.pp_print_string ppf "SVC"
  | Lazy_baseline -> Format.pp_print_string ppf "LAZY"

let method_of_string s =
  match String.lowercase_ascii s with
  | "sd" -> Some Sd
  | "eij" -> Some Eij
  | "hybrid" -> Some Hybrid_default
  | "svc" -> Some Svc_baseline
  | "lazy" -> Some Lazy_baseline
  | s -> (
    match String.index_opt s ':' with
    | Some i when String.sub s 0 i = "hybrid" -> (
      match int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1)) with
      | Some t -> Some (Hybrid_at t)
      | None -> None)
    | _ -> None)

type result = {
  verdict : Verdict.t;
  certified : bool option;
  witness : Witness.t option;
  elim : Elim.result;
  translate_time : float;
  sat_time : float;
  total_time : float;
  phase_times : (string * float) list;
  cnf_clauses : int;
  sat_stats : Solver.stats option;
  encode_stats : Hybrid.stats option;
}

let eliminate = Elim.eliminate

let witness_of elim = function
  | Verdict.Invalid a -> Some (Witness.of_assignment elim a)
  | Verdict.Valid | Verdict.Unknown _ -> None

let eager_config = function
  | Sd -> Hybrid.sd_only
  | Eij -> Hybrid.eij_only
  | Hybrid_default -> Hybrid.default
  | Hybrid_at t -> Hybrid.hybrid ~threshold:t ()
  | Svc_baseline | Lazy_baseline ->
    invalid_arg "Decide.eager_config: not an eager method"

let cnf ~method_ ctx formula =
  let config = eager_config method_ in
  let elim = eliminate ctx formula in
  let encoded =
    Hybrid.encode ~config ctx ~p_consts:elim.Elim.p_consts elim.Elim.formula
  in
  let solver = Solver.create () in
  Tseitin.assert_root (Tseitin.create solver)
    (F.not_ encoded.Hybrid.prop_ctx encoded.Hybrid.f_bool);
  let nvars, clauses = Solver.export_cnf solver in
  { Sepsat_sat.Dimacs.nvars; clauses }

(* Process-wide default for SatELite-style pre/inprocessing in every
   procedure that bottoms out in [Solver]. A mutable default rather than a
   parameter threaded through every call chain, so the bench harness and the
   differential fuzzer can toggle the whole pipeline per run. [Atomic]
   because the serve engine's worker domains read it. *)
let simplify_flag = Atomic.make true

let set_simplify_default on = Atomic.set simplify_flag on

let simplify_default () = Atomic.get simplify_flag

let want_simplify = function
  | Some b -> b
  | None -> Atomic.get simplify_flag

let decide_eager ?simplify ~config ~deadline ~certify ctx formula =
  let t0 = Deadline.now () in
  let elim =
    Obs.span ~cat:"pipeline" "elim" (fun () -> Elim.eliminate ctx formula)
  in
  let t_elim = Deadline.now () in
  (* [~phases] names the phase the pipeline died in, so an Unknown result
     still reports where the time went (satellite: diagnosable give-ups). *)
  let unknown ~phases why =
    let t1 = Deadline.now () in
    {
      verdict = Verdict.Unknown why;
      certified = None;
      witness = None;
      elim;
      translate_time = t1 -. t0;
      sat_time = 0.;
      total_time = t1 -. t0;
      phase_times = phases t1;
      cnf_clauses = 0;
      sat_stats = None;
      encode_stats = None;
    }
  in
  let died_in_encode t1 =
    [ ("elim", t_elim -. t0); ("encode", t1 -. t_elim) ]
  in
  match
    Obs.span ~cat:"pipeline" "encode" (fun () ->
        Hybrid.encode ~config ~deadline ctx ~p_consts:elim.Elim.p_consts
          elim.Elim.formula)
  with
  | exception Hybrid.Translation_blowup ->
    unknown ~phases:died_in_encode "translation blowup"
  | exception Deadline.Timeout ->
    unknown ~phases:died_in_encode
      (if Deadline.interrupted deadline then "cancelled" else "timeout")
  | encoded ->
    let t_enc = Deadline.now () in
    let solver = Solver.create () in
    Solver.set_simplify solver (want_simplify simplify);
    let proof = if certify then Some (Solver.start_proof solver) else None in
    (* DRUP certification replays against the exact clause stream, so it
       keeps the reference full-Tseitin conversion. *)
    let mode = if certify then Tseitin.Full else Tseitin.Polarity in
    let tseitin = Tseitin.create ~mode solver in
    Obs.span ~cat:"pipeline" "cnf" (fun () ->
        Tseitin.assert_root tseitin
          (F.not_ encoded.Hybrid.prop_ctx encoded.Hybrid.f_bool));
    let t1 = Deadline.now () in
    let outcome =
      Obs.span ~cat:"pipeline" "sat" (fun () -> Solver.solve ~deadline solver)
    in
    let t2 = Deadline.now () in
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
        Verdict.Invalid (encoded.Hybrid.decode assign)
    in
    let certified =
      match (verdict, proof) with
      | Verdict.Valid, Some p ->
        Some
          (Obs.span ~cat:"pipeline" "certify" (fun () ->
               Sepsat_sat.Drup_check.certified p))
      | (Verdict.Invalid _ | Verdict.Unknown _), Some _ | _, None -> None
    in
    let t3 = Deadline.now () in
    {
      verdict;
      certified;
      witness = witness_of elim verdict;
      elim;
      translate_time = t1 -. t0;
      sat_time = t2 -. t1;
      total_time = t3 -. t0;
      phase_times =
        [
          ("elim", t_elim -. t0);
          ("encode", t_enc -. t_elim);
          ("cnf", t1 -. t_enc);
          ("sat", t2 -. t1);
        ]
        @ (if certified = None then [] else [ ("certify", t3 -. t2) ]);
      cnf_clauses = Tseitin.clauses_added tseitin;
      sat_stats = Some (Solver.stats solver);
      encode_stats = Some encoded.Hybrid.stats;
    }

(* SVC and LAZY interleave translation and search, so past elimination the
   split collapses to a single "search" phase. *)
let decide_baseline ~span_name ~deadline ~decide_fn ctx formula =
  let t0 = Deadline.now () in
  let elim = Obs.span ~cat:"pipeline" "elim" (fun () -> Elim.eliminate ctx formula) in
  let t1 = Deadline.now () in
  let verdict, _stats =
    Obs.span ~cat:"pipeline" span_name (fun () ->
        decide_fn ~deadline ctx elim.Elim.formula)
  in
  let t2 = Deadline.now () in
  {
    verdict;
    certified = None;
    witness = witness_of elim verdict;
    elim;
    translate_time = t1 -. t0;
    sat_time = t2 -. t1;
    total_time = t2 -. t0;
    phase_times = [ ("elim", t1 -. t0); ("search", t2 -. t1) ];
    cnf_clauses = 0;
    sat_stats = None;
    encode_stats = None;
  }

let decide_svc ~deadline ctx formula =
  decide_baseline ~span_name:"svc.search" ~deadline
    ~decide_fn:(fun ~deadline ctx f -> Svc.decide ~deadline ctx f)
    ctx formula

let decide_lazy ?simplify ~deadline ctx formula =
  let simplify = want_simplify simplify in
  decide_baseline ~span_name:"lazy.search" ~deadline
    ~decide_fn:(fun ~deadline ctx f -> Lazy_smt.decide ~simplify ~deadline ctx f)
    ctx formula

let decide ?(method_ = Hybrid_default) ?(deadline = Deadline.none)
    ?(certify = false) ?simplify ctx formula =
  match method_ with
  | Sd | Eij | Hybrid_default | Hybrid_at _ ->
    decide_eager ?simplify ~config:(eager_config method_) ~deadline ~certify
      ctx formula
  | Svc_baseline -> decide_svc ~deadline ctx formula
  | Lazy_baseline -> decide_lazy ?simplify ~deadline ctx formula

let valid ?method_ ctx formula =
  match (decide ?method_ ctx formula).verdict with
  | Verdict.Valid -> true
  | Verdict.Invalid _ -> false
  | Verdict.Unknown why -> failwith ("Decide.valid: unknown verdict: " ^ why)
