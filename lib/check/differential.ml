module Ast = Sepsat_suf.Ast
module Smtlib = Sepsat_suf.Smtlib
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline
module Decide = Sepsat.Decide
module Random_formula = Sepsat_workloads.Random_formula

type procedure = {
  name : string;
  expect_proof : bool;
  run : Ast.ctx -> Ast.formula -> Decide.result;
}

let procedure_of_method ?(timeout = 10.) method_ =
  let eager =
    match method_ with
    | Decide.Sd | Decide.Eij | Decide.Hybrid_default | Decide.Hybrid_at _ ->
      true
    | Decide.Svc_baseline | Decide.Lazy_baseline -> false
  in
  {
    name = Format.asprintf "%a" Decide.pp_method method_;
    expect_proof = eager;
    run =
      (fun ctx f ->
        Decide.decide ~method_ ~deadline:(Deadline.after timeout)
          ~certify:eager ctx f);
  }

let default_procedures ?timeout () =
  List.map
    (procedure_of_method ?timeout)
    [
      Decide.Sd;
      Decide.Eij;
      Decide.Hybrid_at 0;
      Decide.Hybrid_default;
      Decide.Hybrid_at max_int;
      Decide.Svc_baseline;
      Decide.Lazy_baseline;
    ]

type failure_kind =
  | Disagreement
  | Bad_witness of string
  | Bad_proof of string
  | Crash of string

type failure = {
  kind : failure_kind;
  detail : string;
  verdicts : (string * string) list;
}

type tally = { sat_answers : int; unsat_answers : int; unknowns : int }

let no_answers = { sat_answers = 0; unsat_answers = 0; unknowns = 0 }

let add_tally a b =
  {
    sat_answers = a.sat_answers + b.sat_answers;
    unsat_answers = a.unsat_answers + b.unsat_answers;
    unknowns = a.unknowns + b.unknowns;
  }

let verdict_name = function
  | Verdict.Valid -> "valid"
  | Verdict.Invalid _ -> "invalid"
  | Verdict.Unknown why -> "unknown: " ^ why

let check_formula ~procedures ctx formula =
  let outcomes =
    List.map
      (fun p ->
        match p.run ctx formula with
        | r -> (p, Ok r)
        | exception e -> (p, Error (Printexc.to_string e)))
      procedures
  in
  let verdicts =
    List.map
      (fun (p, o) ->
        ( p.name,
          match o with
          | Ok r -> verdict_name r.Decide.verdict
          | Error msg -> "crash: " ^ msg ))
      outcomes
  in
  let fail kind detail = Error { kind; detail; verdicts } in
  (* Certify every answer before comparing them. *)
  let rec certify_all tally = function
    | [] -> Ok tally
    | (p, Error msg) :: _ -> fail (Crash p.name) msg
    | (p, Ok r) :: rest -> (
      match Certify.check ~expect_proof:p.expect_proof formula r with
      | Error (Certify.Witness_error msg) -> fail (Bad_witness p.name) msg
      | Error (Certify.Proof_error msg) -> fail (Bad_proof p.name) msg
      | Ok outcome ->
        let tally =
          match outcome with
          | Certify.Invalid_witnessed _ ->
            { tally with sat_answers = tally.sat_answers + 1 }
          | Certify.Valid_certified | Certify.Valid_uncertified ->
            { tally with unsat_answers = tally.unsat_answers + 1 }
          | Certify.Gave_up _ -> { tally with unknowns = tally.unknowns + 1 }
        in
        certify_all tally rest)
  in
  match certify_all no_answers outcomes with
  | Error _ as e -> e
  | Ok tally -> (
    let decisive =
      List.filter_map
        (fun (p, o) ->
          match o with
          | Ok { Decide.verdict = Verdict.Valid; _ } -> Some (p.name, true)
          | Ok { Decide.verdict = Verdict.Invalid _; _ } ->
            Some (p.name, false)
          | Ok { Decide.verdict = Verdict.Unknown _; _ } | Error _ -> None)
        outcomes
    in
    match decisive with
    | [] | [ _ ] -> Ok tally
    | (_, v) :: rest ->
      if List.for_all (fun (_, v') -> v' = v) rest then Ok tally
      else
        fail Disagreement
          (String.concat ", "
             (List.map
                (fun (n, v) -> Printf.sprintf "%s=%s" n
                   (if v then "valid" else "invalid"))
                decisive)))

let same_kind a b =
  match (a, b) with
  | Disagreement, Disagreement -> true
  | Bad_witness _, Bad_witness _ -> true
  | Bad_proof _, Bad_proof _ -> true
  | Crash _, Crash _ -> true
  | (Disagreement | Bad_witness _ | Bad_proof _ | Crash _), _ -> false

let shrink_failure ~procedures ctx formula (failure : failure) =
  let still_failing g =
    match check_formula ~procedures ctx g with
    | Ok _ -> false
    | Error f -> same_kind f.kind failure.kind
  in
  Shrink.shrink ctx ~still_failing formula

type counterexample = {
  iteration : int;
  gen_seed : int;
  failure : failure;
  original : Ast.formula;
  shrunk : Ast.formula;
  script : string;
}

type summary = {
  iterations : int;
  tally : tally;
  failures : counterexample list;
}

let fuzz ?procedures ?(gen = Random_formula.small) ?(shrink_failures = true)
    ?(vary_simplify = false) ?(log = fun _ -> ()) ~iters ~seed () =
  let procedures =
    match procedures with Some ps -> ps | None -> default_procedures ()
  in
  let tally = ref no_answers in
  let failures = ref [] in
  let saved_simplify = Decide.simplify_default () in
  Fun.protect
    ~finally:(fun () -> Decide.set_simplify_default saved_simplify)
  @@ fun () ->
  for i = 0 to iters - 1 do
    let gen_seed = (seed * 1_000_003) + i in
    (* Alternate the SAT core's pre/inprocessing across iterations so the
       cross-procedure verdict comparison also covers simplified-vs-plain
       search on the same formula stream (shrinking inherits the iteration's
       setting, so reproducers stay deterministic). *)
    if vary_simplify then Decide.set_simplify_default (gen_seed land 1 = 0);
    let ctx = Ast.create_ctx () in
    let f = Random_formula.generate gen ctx ~seed:gen_seed in
    (match check_formula ~procedures ctx f with
    | Ok t -> tally := add_tally !tally t
    | Error failure ->
      log
        (Printf.sprintf "iteration %d (gen seed %d): %s" i gen_seed
           failure.detail);
      let shrunk =
        if shrink_failures then shrink_failure ~procedures ctx f failure
        else f
      in
      let script = Smtlib.script_to_string [ Ast.not_ ctx shrunk ] in
      failures :=
        { iteration = i; gen_seed; failure; original = f; shrunk; script }
        :: !failures);
    if (i + 1) mod 100 = 0 then
      log
        (Printf.sprintf "%d/%d iterations, %d sat / %d unsat answers, %d \
                         failure(s)"
           (i + 1) iters !tally.sat_answers !tally.unsat_answers
           (List.length !failures))
  done;
  { iterations = iters; tally = !tally; failures = List.rev !failures }

let pp_kind ppf = function
  | Disagreement -> Format.pp_print_string ppf "verdict disagreement"
  | Bad_witness p -> Format.fprintf ppf "bad witness from %s" p
  | Bad_proof p -> Format.fprintf ppf "bad proof from %s" p
  | Crash p -> Format.fprintf ppf "crash in %s" p

let pp_counterexample ppf c =
  Format.fprintf ppf "failure at iteration %d (gen seed %d): %a@." c.iteration
    c.gen_seed pp_kind c.failure.kind;
  Format.fprintf ppf "  %s@." c.failure.detail;
  List.iter
    (fun (name, v) -> Format.fprintf ppf "  %-12s %s@." name v)
    c.failure.verdicts;
  Format.fprintf ppf "original (%d nodes): %a@." (Ast.size c.original) Ast.pp
    c.original;
  Format.fprintf ppf "shrunk to %d nodes; SMT-LIB reproducer:@.%s"
    (Ast.size c.shrunk) c.script

let pp_summary ppf s =
  Format.fprintf ppf
    "%d iterations: %d sat answers (all witness-checked), %d unsat answers \
     (DRUP-checked where applicable), %d unknowns, %d failure(s)@."
    s.iterations s.tally.sat_answers s.tally.unsat_answers s.tally.unknowns
    (List.length s.failures);
  List.iter (fun c -> pp_counterexample ppf c) s.failures
