module Ast = Sepsat_suf.Ast
module Interp = Sepsat_suf.Interp
module Decide = Sepsat.Decide
module Witness = Sepsat.Witness
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline

type assignment = [ `I of Ast.term | `B of Ast.formula ]

type t = {
  ctx : Ast.ctx;
  name : string;
  int_vars : string list;
  bool_vars : string list;
  init : step -> Ast.formula;
  next : step -> (string * assignment) list;
}

and step = {
  sys : t;
  idx : int;
  ints : (string * Ast.term) list;
  bools : (string * Ast.formula) list;
  input_ints : (string, Ast.term) Hashtbl.t;
  input_bools : (string, Ast.formula) Hashtbl.t;
}

let index step = step.idx

let int_var step name =
  match List.assoc_opt name step.ints with
  | Some t -> t
  | None ->
    invalid_arg
      (Printf.sprintf "Transition_system: unknown integer variable %S" name)

let bool_var step name =
  match List.assoc_opt name step.bools with
  | Some f -> f
  | None ->
    invalid_arg
      (Printf.sprintf "Transition_system: unknown Boolean variable %S" name)

let int_input step name =
  match Hashtbl.find_opt step.input_ints name with
  | Some t -> t
  | None ->
    let symbol =
      Ast.const step.sys.ctx
        (Ast.fresh_name step.sys.ctx (Printf.sprintf "%s?%d" name step.idx))
    in
    Hashtbl.add step.input_ints name symbol;
    symbol

let bool_input step name =
  match Hashtbl.find_opt step.input_bools name with
  | Some f -> f
  | None ->
    let symbol =
      Ast.bconst step.sys.ctx
        (Ast.fresh_name step.sys.ctx (Printf.sprintf "%s?%d" name step.idx))
    in
    Hashtbl.add step.input_bools name symbol;
    symbol

let define ~ctx ?(name = "system") ~int_vars ~bool_vars ~init ~next () =
  (match
     List.find_opt
       (fun v -> List.mem v bool_vars)
       (List.sort_uniq compare int_vars)
   with
  | Some v ->
    invalid_arg
      (Printf.sprintf "Transition_system: %S declared with both sorts" v)
  | None -> ());
  { ctx; name; int_vars; bool_vars; init; next }

let fresh_state sys ~tag ~idx =
  {
    sys;
    idx;
    ints =
      List.map
        (fun v ->
          (v, Ast.const sys.ctx (Ast.fresh_name sys.ctx (v ^ "@" ^ tag))))
        sys.int_vars;
    bools =
      List.map
        (fun v ->
          (v, Ast.bconst sys.ctx (Ast.fresh_name sys.ctx (v ^ "@" ^ tag))))
        sys.bool_vars;
    input_ints = Hashtbl.create 4;
    input_bools = Hashtbl.create 4;
  }

let advance step =
  let sys = step.sys in
  let bindings = sys.next step in
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (v, _) ->
      if Hashtbl.mem seen v then
        invalid_arg
          (Printf.sprintf "Transition_system: %S assigned twice in next" v);
      Hashtbl.add seen v ())
    bindings;
  let take_int v =
    match List.assoc_opt v bindings with
    | None -> int_var step v
    | Some (`I t) -> t
    | Some (`B _) ->
      invalid_arg
        (Printf.sprintf "Transition_system: Boolean value for integer %S" v)
  in
  let take_bool v =
    match List.assoc_opt v bindings with
    | None -> bool_var step v
    | Some (`B f) -> f
    | Some (`I _) ->
      invalid_arg
        (Printf.sprintf "Transition_system: integer value for Boolean %S" v)
  in
  List.iter
    (fun (v, _) ->
      if not (List.mem v sys.int_vars || List.mem v sys.bool_vars) then
        invalid_arg
          (Printf.sprintf "Transition_system: assignment to undeclared %S" v))
    bindings;
  {
    sys;
    idx = step.idx + 1;
    ints = List.map (fun v -> (v, take_int v)) sys.int_vars;
    bools = List.map (fun v -> (v, take_bool v)) sys.bool_vars;
    input_ints = Hashtbl.create 4;
    input_bools = Hashtbl.create 4;
  }

(* -- Verification ---------------------------------------------------------- *)

type trace = {
  depth : int;
  states : (int * (string * string) list) list;
}

type result = Proved | Counterexample of trace | Inconclusive of string

let pp_result ppf = function
  | Proved -> Format.pp_print_string ppf "proved"
  | Inconclusive why -> Format.fprintf ppf "inconclusive (%s)" why
  | Counterexample { depth; states } ->
    Format.fprintf ppf "counterexample at depth %d:@." depth;
    List.iter
      (fun (i, values) ->
        Format.fprintf ppf "  step %d:" i;
        List.iter (fun (v, value) -> Format.fprintf ppf " %s=%s" v value) values;
        Format.fprintf ppf "@.")
      states

let decode_trace (r : Decide.result) assignment steps ~depth =
  let interp =
    Witness.to_interp (Witness.of_assignment r.Decide.elim assignment)
  in
  let states =
    List.map
      (fun step ->
        let ints =
          List.map
            (fun (v, t) -> (v, string_of_int (Interp.eval_term interp t)))
            step.ints
        in
        let bools =
          List.map
            (fun (v, f) -> (v, string_of_bool (Interp.eval interp f)))
            step.bools
        in
        (step.idx, ints @ bools))
      steps
  in
  { depth; states }

let bmc ?method_ ?(deadline = Deadline.none) sys ~property ~depth =
  let s0 = fresh_state sys ~tag:"0" ~idx:0 in
  let init_f = sys.init s0 in
  let rec loop step visited =
    if step.idx > depth then Proved
    else begin
      let query = Ast.implies sys.ctx init_f (property step) in
      let r = Decide.decide ?method_ ~deadline sys.ctx query in
      match r.Decide.verdict with
      | Verdict.Valid -> loop (advance step) (visited @ [ step ])
      | Verdict.Invalid assignment ->
        Counterexample
          (decode_trace r assignment (visited @ [ step ]) ~depth:step.idx)
      | Verdict.Unknown why ->
        Inconclusive (Printf.sprintf "depth %d: %s" step.idx why)
    end
  in
  loop s0 []

let induction ?method_ ?(deadline = Deadline.none) ?(k = 1) sys ~property =
  if k < 1 then invalid_arg "Transition_system.induction: k must be >= 1";
  match bmc ?method_ ~deadline sys ~property ~depth:(k - 1) with
  | Counterexample _ as cex -> cex
  | Inconclusive why -> Inconclusive ("base case: " ^ why)
  | Proved ->
    (* Step case from an arbitrary (not necessarily reachable) state. *)
    let a0 = fresh_state sys ~tag:"any" ~idx:0 in
    let rec unroll step acc n =
      if n = 0 then List.rev acc
      else begin
        let succ = advance step in
        unroll succ (succ :: acc) (n - 1)
      end
    in
    let chain = a0 :: unroll a0 [] k in
    let hypotheses, conclusion =
      match List.rev chain with
      | last :: earlier -> (List.rev_map property earlier, property last)
      | [] -> assert false
    in
    let query =
      Ast.implies sys.ctx (Ast.and_list sys.ctx hypotheses) conclusion
    in
    let r = Decide.decide ?method_ ~deadline sys.ctx query in
    (match r.Decide.verdict with
    | Verdict.Valid -> Proved
    | Verdict.Invalid _ ->
      Inconclusive
        (Printf.sprintf
           "the induction step fails at k = %d (possibly spurious; try a \
            larger k or a strengthened property)"
           k)
    | Verdict.Unknown why -> Inconclusive ("step case: " ^ why))
