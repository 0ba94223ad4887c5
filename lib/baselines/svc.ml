module Ast = Sepsat_suf.Ast
module Sep = Sepsat_sep
module Normal = Sep.Normal
module Ground = Sep.Ground
module Bound = Sep.Bound
module Brute = Sep.Brute
module Verdict = Sep.Verdict
module Diff_solver = Sepsat_theory.Diff_solver
module Deadline = Sepsat_util.Deadline

type stats = { splits : int; theory_checks : int }

let no_p _ = false

(* Replace every atom by its ground-pair expansion, folding the statically
   decidable comparisons; the result's atoms all compare ground terms with
   distinct bases. *)
let expand_atoms ctx root =
  let memo = Hashtbl.create 256 in
  let gmap = Sep.Ground_map.create ctx in
  let rec go_f (f : Ast.formula) =
    match Hashtbl.find_opt memo f.fid with
    | Some f' -> f'
    | None ->
      let f' =
        match f.fnode with
        | Ast.Ftrue | Ast.Ffalse | Ast.Bconst _ -> f
        | Ast.Not g -> Ast.not_ ctx (go_f g)
        | Ast.And (a, b) -> Ast.and_ ctx (go_f a) (go_f b)
        | Ast.Or (a, b) -> Ast.or_ ctx (go_f a) (go_f b)
        | Ast.Eq (t1, t2) -> expand t1 t2 `Eq
        | Ast.Lt (t1, t2) -> expand t1 t2 `Lt
        | Ast.Papp _ -> invalid_arg "Svc: application present"
      in
      Hashtbl.add memo f.fid f';
      f'
  and expand t1 t2 op =
    let pairs1 = Sep.Ground_map.of_term gmap t1 in
    let pairs2 = Sep.Ground_map.of_term gmap t2 in
    let disjuncts =
      List.concat_map
        (fun (g1, c1) ->
          List.map
            (fun (g2, c2) ->
              let ground_atom =
                match op with
                | `Eq -> (
                  match Bound.eq_grounds ~is_p:no_p g1 g2 with
                  | `Static b -> Ast.of_bool ctx b
                  | `Conj _ ->
                    Ast.eq ctx (Ground.to_term ctx g1) (Ground.to_term ctx g2))
                | `Lt -> (
                  match Bound.lt_grounds ~is_p:no_p g1 g2 with
                  | `Static b -> Ast.of_bool ctx b
                  | `Bound _ ->
                    Ast.lt ctx (Ground.to_term ctx g1) (Ground.to_term ctx g2))
              in
              Ast.and_ ctx (Ast.and_ ctx (go_f c1) (go_f c2)) ground_atom)
            pairs2)
        pairs1
    in
    Ast.or_list ctx disjuncts
  in
  go_f root

let decide ?(deadline = Deadline.none) ctx formula =
  let formula = Normal.normalize ctx formula in
  let expanded = expand_atoms ctx formula in
  let ds : unit Diff_solver.t = Diff_solver.create () in
  List.iter
    (fun (name, arity) ->
      assert (arity = 0);
      ignore (Diff_solver.node ds name))
    (Ast.functions formula);
  let splits = ref 0 in
  let theory_checks = ref 0 in
  (* Boolean-constant environment with trailing. *)
  let benv : (string, bool) Hashtbl.t = Hashtbl.create 16 in
  let assert_view (v : Bound.view) =
    let b = v.Bound.bound in
    let x = Diff_solver.node ds b.Bound.x in
    let y = Diff_solver.node ds b.Bound.y in
    incr theory_checks;
    if v.Bound.negated then
      Diff_solver.assert_and_check ds ~x:y ~y:x ~c:(-b.Bound.c - 1) ~tag:()
    else Diff_solver.assert_and_check ds ~x ~y ~c:b.Bound.c ~tag:()
  in
  (* Asserts a list of bound views; runs [k] if the context stays
     consistent. Restores the context afterwards; returns [k]'s success. *)
  let with_views views k =
    Diff_solver.push ds;
    let ok = List.for_all assert_view views && k () in
    if not ok then Diff_solver.pop ds;
    ok
  in
  let with_bconst name value k =
    match Hashtbl.find_opt benv name with
    | Some b -> b = value && k ()
    | None ->
      Hashtbl.add benv name value;
      let ok = k () in
      if not ok then Hashtbl.remove benv name;
      ok
  in
  (* Decided atomic formulas, so a shared atom splits once per branch. *)
  let decided : (int, bool) Hashtbl.t = Hashtbl.create 64 in
  let atom_views (f : Ast.formula) value =
    match f.fnode with
    | Ast.Eq (t1, t2) -> (
      let g1 = Normal.ground_of_term t1 and g2 = Normal.ground_of_term t2 in
      match Bound.eq_grounds ~is_p:no_p g1 g2 with
      | `Static _ -> assert false (* folded during expansion *)
      | `Conj (v1, v2) ->
        if value then [ [ v1; v2 ] ]
        else [ [ Bound.negate v1 ]; [ Bound.negate v2 ] ])
    | Ast.Lt (t1, t2) -> (
      let g1 = Normal.ground_of_term t1 and g2 = Normal.ground_of_term t2 in
      match Bound.lt_grounds ~is_p:no_p g1 g2 with
      | `Static _ -> assert false
      | `Bound v -> if value then [ [ v ] ] else [ [ Bound.negate v ] ])
    | _ -> assert false
  in
  let with_atom f value k =
    match Hashtbl.find_opt decided (f : Ast.formula).fid with
    | Some b -> b = value && k ()
    | None ->
      Hashtbl.add decided f.fid value;
      incr splits;
      let ok = List.exists (fun views -> with_views views k) (atom_views f value) in
      if not ok then Hashtbl.remove decided f.fid;
      ok
  in
  (* Branch-order heuristic: put small subproblems first, so cheap
     contradictions surface before expensive subtrees are (re)explored. *)
  let sizes : (int, int) Hashtbl.t = Hashtbl.create 256 in
  let rec fsize (f : Ast.formula) =
    match Hashtbl.find_opt sizes f.fid with
    | Some s -> s
    | None ->
      let s =
        match f.fnode with
        | Ast.Ftrue | Ast.Ffalse | Ast.Bconst _ | Ast.Eq _ | Ast.Lt _ -> 1
        | Ast.Not g -> 1 + fsize g
        | Ast.And (a, b) | Ast.Or (a, b) -> 1 + fsize a + fsize b
        | Ast.Papp _ -> invalid_arg "Svc: application present"
      in
      Hashtbl.add sizes f.fid s;
      s
  in
  let ordered a b = if fsize a <= fsize b then (a, b) else (b, a) in
  (* A CPU deadline reads the process clock, a system call, so the tableau
     polls it once every 256 nodes rather than at each. *)
  let nodes = ref 0 in
  let poll () =
    incr nodes;
    if !nodes land 255 = 0 then Deadline.check deadline
  in
  (* Tableau search: [satisfy f k] extends the context to make [f] true and
     then runs the continuation [k]; [falsify f k] dually. No learning — the
     SVC signature behaviour the paper compares against. *)
  let rec satisfy (f : Ast.formula) k =
    poll ();
    match f.fnode with
    | Ast.Ftrue -> k ()
    | Ast.Ffalse -> false
    | Ast.Not g -> falsify g k
    | Ast.And (a, b) ->
      let a, b = ordered a b in
      satisfy a (fun () -> satisfy b k)
    | Ast.Or (a, b) ->
      incr splits;
      let a, b = ordered a b in
      satisfy a k || satisfy b k
    | Ast.Bconst name -> with_bconst name true k
    | Ast.Eq _ | Ast.Lt _ -> with_atom f true k
    | Ast.Papp _ -> invalid_arg "Svc: application present"
  and falsify (f : Ast.formula) k =
    poll ();
    match f.fnode with
    | Ast.Ftrue -> false
    | Ast.Ffalse -> k ()
    | Ast.Not g -> satisfy g k
    | Ast.And (a, b) ->
      incr splits;
      let a, b = ordered a b in
      falsify a k || falsify b k
    | Ast.Or (a, b) ->
      let a, b = ordered a b in
      falsify a (fun () -> falsify b k)
    | Ast.Bconst name -> with_bconst name false k
    | Ast.Eq _ | Ast.Lt _ -> with_atom f false k
    | Ast.Papp _ -> invalid_arg "Svc: application present"
  in
  let result =
    match falsify expanded (fun () -> true) with
    | true ->
      let ints = Diff_solver.model ds in
      let bools =
        Ast.predicates expanded
        |> List.map (fun (name, _) ->
               (name, try Hashtbl.find benv name with Not_found -> false))
      in
      Verdict.Invalid { Brute.ints; bools }
    | false -> Verdict.Valid
    | exception Deadline.Timeout -> Verdict.Unknown "timeout"
  in
  (result, { splits = !splits; theory_checks = !theory_checks })
