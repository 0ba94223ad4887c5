module Ast = Sepsat_suf.Ast
module Sset = Sepsat_util.Sset
module Parse = Sepsat_suf.Parse
module Brute = Sepsat_sep.Brute
module Component = Sepsat_sep.Component
module Verdict = Sepsat_sep.Verdict
module Hybrid = Sepsat_encode.Hybrid
module F = Sepsat_prop.Formula
module Tseitin = Sepsat_prop.Tseitin
module Solver = Sepsat_sat.Solver
module Deadline = Sepsat_util.Deadline
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Trace_ctx = Sepsat_obs.Trace_ctx

let m_components = lazy (Metrics.counter "parallel.components")

let default_pool () =
  max 1 (min 4 (Domain.recommended_domain_count () - 1))

(* Successive pools in one process (every serve request builds one) get
   distinct lane names — "components#3:w0", not a second "components:w0" —
   so exported trace lanes and flight records never interleave two pools'
   work under one label. *)
let pool_gen = Atomic.make 0

let next_pool_gen () = 1 + Atomic.fetch_and_add pool_gen 1

(* -- Component pool -------------------------------------------------------- *)

type components_result = {
  cr_verdict : Verdict.t;
  cr_assignment : Brute.assignment option;
  cr_certified : bool option;
  cr_n_components : int;
  cr_pool : int;
  cr_cnf_clauses : int;
  cr_sat_stats : Solver.stats option;
}

(* Outcome of one component's satisfiability check, stored by workers. *)
type comp_res = {
  k_verdict : Verdict.t;  (** [Valid] = goal unsatisfiable *)
  k_assignment : Brute.assignment option;
  k_certified : bool option;
  k_cnf : int;
  k_stats : Solver.stats option;
}

(* Components own disjoint g-constants and Boolean constants, and every
   component decodes all p-constants at the same injected values, so the
   union of their models is a function; a duplicate name with two values
   means the split was wrong — fail loudly rather than return a witness the
   certifier would reject for unclear reasons. *)
let merge_assignments asgs =
  let dedup l =
    let l = List.sort_uniq compare l in
    let rec dup = function
      | (n1, _) :: ((n2, _) :: _ as tl) ->
        if String.equal n1 n2 then
          invalid_arg
            (Printf.sprintf
               "Parallel: components disagree on witness value of %S" n1)
        else dup tl
      | _ -> ()
    in
    dup l;
    l
  in
  {
    Brute.ints = dedup (List.concat_map (fun a -> a.Brute.ints) asgs);
    bools = dedup (List.concat_map (fun a -> a.Brute.bools) asgs);
  }

let solve_components ?pool ?simplify ?stop ?p_value ~config ~deadline ~certify
    _ctx ~p_consts (split : Component.split) =
  let pool = match pool with Some p -> max 1 p | None -> default_pool () in
  let simplify =
    match simplify with Some b -> b | None -> Atomic.get Decide_flags.simplify
  in
  let comps = Array.of_list split.Component.components in
  let n = Array.length comps in
  if Obs.enabled () then Metrics.add (Lazy.force m_components) n;
  let printed =
    Array.map (fun c -> Format.asprintf "%a" Ast.pp c.Component.goal) comps
  in
  let p_value_table =
    match p_value with
    | Some t -> t
    | None -> Hybrid.p_values_of split.Component.classes ~p_consts
  in
  (* Short-circuit flag for the pool itself; the parent's [stop] (if any) is
     folded into the deadline so translation loops and the CDCL deadline
     poll observe it too — [Solver.set_stop] holds only one flag. *)
  let pool_stop = Atomic.make false in
  let deadline =
    let d =
      match stop with
      | Some flag -> Deadline.with_stop deadline flag
      | None -> deadline
    in
    Deadline.with_stop d pool_stop
  in
  let next = Atomic.make 0 in
  let results : comp_res option array = Array.make n None in
  let winner : (int * comp_res) option Atomic.t = Atomic.make None in
  let run_component i =
    let r =
      Obs.span ~cat:"parallel"
        (Printf.sprintf "component:%d" i)
        (fun () ->
        let ctx' = Ast.create_ctx () in
        let goal = Parse.formula ctx' printed.(i) in
        (* The component goal is a conjunctive factor of ¬f: it is
           unsatisfiable exactly when ¬goal is valid, so the standard
           pipeline applies to ¬goal. *)
        let target = Ast.not_ ctx' goal in
        let p_tbl = Hashtbl.create 16 in
        List.iter (fun (k, v) -> Hashtbl.replace p_tbl k v) p_value_table;
        let p_value name =
          match Hashtbl.find_opt p_tbl name with
          | Some v -> v
          | None ->
            invalid_arg (Printf.sprintf "Parallel: unknown p-constant %S" name)
        in
        match Hybrid.encode ~config ~deadline ~p_value ctx' ~p_consts target with
        | exception Hybrid.Translation_blowup ->
          {
            k_verdict = Verdict.Unknown "translation blowup";
            k_assignment = None;
            k_certified = None;
            k_cnf = 0;
            k_stats = None;
          }
        | exception Deadline.Timeout ->
          {
            k_verdict =
              Verdict.Unknown
                (if Deadline.interrupted deadline then "cancelled"
                 else "timeout");
            k_assignment = None;
            k_certified = None;
            k_cnf = 0;
            k_stats = None;
          }
        | encoded ->
          let solver = Solver.create () in
          Solver.set_simplify solver simplify;
          Solver.set_stop solver pool_stop;
          let proof =
            if certify then Some (Solver.start_proof solver) else None
          in
          let mode = if certify then Tseitin.Full else Tseitin.Polarity in
          let tseitin = Tseitin.create ~mode solver in
          Tseitin.assert_root tseitin
            (F.not_ encoded.Hybrid.prop_ctx encoded.Hybrid.f_bool);
          let outcome = Solver.solve ~deadline solver in
          let verdict, assignment =
            match outcome with
            | Solver.Unsat -> (Verdict.Valid, None)
            | Solver.Unknown ->
              ( Verdict.Unknown
                  (if Atomic.get pool_stop || Deadline.interrupted deadline
                   then "cancelled"
                   else "timeout"),
                None )
            | Solver.Sat ->
              let assign v =
                match Tseitin.find_var tseitin v with
                | Some lit -> Solver.value solver lit
                | None -> false
              in
              let a = encoded.Hybrid.decode assign in
              (Verdict.Invalid a, Some a)
          in
          let certified =
            match (verdict, proof) with
            | Verdict.Valid, Some p -> Some (Sepsat_sat.Drup_check.certified p)
            | (Verdict.Invalid _ | Verdict.Unknown _), Some _ | _, None -> None
          in
          let res =
            {
              k_verdict = verdict;
              k_assignment = assignment;
              k_certified = certified;
              k_cnf = Tseitin.clauses_added tseitin;
              k_stats = Some (Solver.stats solver);
            }
          in
          (match verdict with
          | Verdict.Valid ->
            if Atomic.compare_and_set winner None (Some (i, res)) then begin
              Atomic.set pool_stop true;
              Obs.instant ~cat:"parallel" "shortcircuit"
            end
          | Verdict.Invalid _ | Verdict.Unknown _ -> ());
          res)
    in
    results.(i) <- Some r
  in
  let gen = next_pool_gen () in
  (* Child domains start with an empty trace context; hand them the
     spawner's so their spans carry the originating request's rid. *)
  let tctx = Trace_ctx.capture () in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        if Atomic.get pool_stop then
          results.(i) <-
            Some
              {
                k_verdict = Verdict.Unknown "cancelled";
                k_assignment = None;
                k_certified = None;
                k_cnf = 0;
                k_stats = None;
              }
        else run_component i;
        loop ()
      end
    in
    loop ()
  in
  let n_domains = max 1 (min pool n) in
  Obs.span ~cat:"parallel" "components.pool" (fun () ->
      (* Inline on the calling domain when the pool is one wide (keep the
         caller's lane name); otherwise spawn named worker lanes carrying
         the caller's trace context. *)
      if n_domains = 1 then worker ()
      else
        let domains =
          List.init n_domains (fun w ->
              Domain.spawn (fun () ->
                  Obs.name_thread (Printf.sprintf "components#%d:w%d" gen w);
                  Trace_ctx.with_ctx tctx worker))
        in
        List.iter Domain.join domains);
  let results =
    Array.map
      (function
        | Some r -> r
        | None ->
          {
            k_verdict = Verdict.Unknown "cancelled";
            k_assignment = None;
            k_certified = None;
            k_cnf = 0;
            k_stats = None;
          })
      results
  in
  let cnf_clauses = Array.fold_left (fun acc r -> acc + r.k_cnf) 0 results in
  let verdict, assignment, certified, stats =
    match Atomic.get winner with
    | Some (_, r) -> (Verdict.Valid, None, r.k_certified, r.k_stats)
    | None -> (
      let unknown =
        Array.fold_left
          (fun acc r ->
            match (acc, r.k_verdict) with
            | Some _, _ -> acc
            | None, Verdict.Unknown why -> Some why
            | None, _ -> None)
          None results
      in
      match unknown with
      | Some why -> (Verdict.Unknown why, None, None, None)
      | None ->
        let asgs =
          Array.to_list results
          |> List.filter_map (fun r -> r.k_assignment)
        in
        let merged = merge_assignments asgs in
        ( Verdict.Invalid merged,
          Some merged,
          None,
          if n > 0 then results.(0).k_stats else None ))
  in
  {
    cr_verdict = verdict;
    cr_assignment = assignment;
    cr_certified = certified;
    cr_n_components = n;
    cr_pool = n_domains;
    cr_cnf_clauses = cnf_clauses;
    cr_sat_stats = stats;
  }
