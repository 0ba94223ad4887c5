(* Tests for the encoders: bit-vector circuits, EIJ transitivity generation,
   and hybrid encoding invariants. End-to-end correctness is covered by
   test_integration. *)

module F = Sepsat_prop.Formula
module Bitvec = Sepsat_encode.Bitvec
module Eij = Sepsat_encode.Eij
module Hybrid = Sepsat_encode.Hybrid
module Bound = Sepsat_sep.Bound
module Ground = Sepsat_sep.Ground
module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Elim = Sepsat_suf.Elim
module Solver = Sepsat_sat.Solver
module Tseitin = Sepsat_prop.Tseitin
module Sset = Sepsat_util.Sset

let test_width_for () =
  Alcotest.(check int) "0" 1 (Bitvec.width_for 0);
  Alcotest.(check int) "1" 1 (Bitvec.width_for 1);
  Alcotest.(check int) "2" 2 (Bitvec.width_for 2);
  Alcotest.(check int) "3" 2 (Bitvec.width_for 3);
  Alcotest.(check int) "4" 3 (Bitvec.width_for 4);
  Alcotest.(check int) "255" 8 (Bitvec.width_for 255);
  Alcotest.(check int) "256" 9 (Bitvec.width_for 256)

let test_of_int_decode () =
  let ctx = F.create_ctx () in
  List.iter
    (fun n ->
      let bv = Bitvec.of_int ctx ~width:8 n in
      Alcotest.(check int) (string_of_int n) n
        (Bitvec.decode (fun _ -> false) bv))
    [ 0; 1; 5; 100; 255 ];
  Alcotest.(check bool) "too wide" true
    (match Bitvec.of_int ctx ~width:3 8 with
    | exception Invalid_argument _ -> true
    | _ -> false);
  Alcotest.(check bool) "negative" true
    (match Bitvec.of_int ctx ~width:3 (-1) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* Constant circuits evaluate to the right values for every (a, k) pair. *)
let prop_bitvec_circuits =
  QCheck2.Test.make ~name:"bitvec circuits vs integers" ~count:500
    QCheck2.Gen.(triple (int_bound 63) (int_bound 63) (int_range (-40) 40))
    (fun (a, b, k) ->
      let ctx = F.create_ctx () in
      let width = 7 in
      let bva = Bitvec.of_int ctx ~width a in
      let bvb = Bitvec.of_int ctx ~width b in
      let e = fun _ -> false in
      let added = Bitvec.decode e (Bitvec.add_int ctx bva k) in
      let expect_add = (a + k) land 127 in
      added = expect_add
      && F.eval e (Bitvec.equal ctx bva bvb) = (a = b)
      && F.eval e (Bitvec.ult ctx bva bvb) = (a < b)
      && F.eval e (Bitvec.ule ctx bva bvb) = (a <= b))

(* With symbolic inputs, the circuits agree with integers under random
   assignments. *)
let prop_bitvec_symbolic =
  QCheck2.Test.make ~name:"symbolic bitvec vs integers" ~count:300
    QCheck2.Gen.(triple (int_bound 255) (int_bound 255) (int_range (-100) 100))
    (fun (a, b, k) ->
      let ctx = F.create_ctx () in
      let width = 8 in
      let bva = Bitvec.fresh ctx ~width in
      let bvb = Bitvec.fresh ctx ~width in
      let assign =
        let values = Hashtbl.create 16 in
        Array.iteri
          (fun i bit -> Hashtbl.add values (F.var_index bit) (a lsr i land 1 = 1))
          bva;
        Array.iteri
          (fun i bit -> Hashtbl.add values (F.var_index bit) (b lsr i land 1 = 1))
          bvb;
        fun i -> try Hashtbl.find values i with Not_found -> false
      in
      Bitvec.decode assign bva = a
      && Bitvec.decode assign (Bitvec.add_int ctx bva k) = (a + k) land 255
      && F.eval assign (Bitvec.equal ctx bva bvb) = (a = b)
      && F.eval assign (Bitvec.ult ctx bva bvb) = (a < b)
      && F.eval assign (Bitvec.mux ctx (Bitvec.ult ctx bva bvb) bva bvb
                        |> Bitvec.equal ctx (Bitvec.of_int ctx ~width (min a b)))
         = true)

(* EIJ variable canonicalization: a bound and its flip share a variable. *)
let test_eij_sharing () =
  let ctx = F.create_ctx () in
  let eij = Eij.create ctx in
  let v1 = Eij.encode_view eij (Bound.view ~x:"a" ~y:"b" ~c:2) in
  let v2 = Eij.encode_view eij (Bound.view ~x:"b" ~y:"a" ~c:(-3)) in
  (* b - a <= -3  <=>  not (a - b <= 2) *)
  Alcotest.(check bool) "negation shared" true (v2 == F.not_ ctx v1);
  Alcotest.(check int) "one predicate" 1 (Eij.num_predicates eij)

(* F_trans characterizes realizability exactly on a handcrafted triangle. *)
let test_eij_triangle () =
  let pctx = F.create_ctx () in
  let eij = Eij.create pctx in
  let is_p _ = false in
  let exy = Eij.encode_lt eij ~is_p (Ground.make "x" 0) (Ground.make "y" 0) in
  let eyz = Eij.encode_lt eij ~is_p (Ground.make "y" 0) (Ground.make "z" 0) in
  let ezx = Eij.encode_lt eij ~is_p (Ground.make "z" 0) (Ground.make "x" 0) in
  let f_trans = Eij.trans_constraints eij in
  (* x<y, y<z, z<x is a negative cycle: F_trans ∧ exy ∧ eyz ∧ ezx unsat *)
  let solver = Solver.create () in
  let ts = Tseitin.create solver in
  Tseitin.assert_root ts
    (F.and_list pctx [ f_trans; exy; eyz; ezx ]);
  Alcotest.(check bool) "cycle blocked" true (Solver.solve solver = Solver.Unsat);
  (* but x<y, y<z, x<z is realizable *)
  let solver2 = Solver.create () in
  let ts2 = Tseitin.create solver2 in
  Tseitin.assert_root ts2
    (F.and_list pctx [ f_trans; exy; eyz; F.not_ pctx ezx ]);
  Alcotest.(check bool) "chain allowed" true (Solver.solve solver2 = Solver.Sat)

let test_trans_budget () =
  let pctx = F.create_ctx () in
  let eij = Eij.create ~budget:3 pctx in
  let is_p _ = false in
  (* enough predicates over one component to exceed a budget of 3 *)
  let names = [ "a"; "b"; "c"; "d"; "e" ] in
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if i < j then
            ignore (Eij.encode_lt eij ~is_p (Ground.make x 0) (Ground.make y 0)))
        names)
    names;
  Alcotest.(check bool) "budget blowup" true
    (match Eij.trans_constraints eij with
    | exception Eij.Translation_blowup -> true
    | _ -> false)

(* Exactness of F_trans: for random bound sets, an assignment of the
   predicate variables satisfies F_trans iff the induced difference
   constraints are feasible. This exercises the vertex elimination together
   with its weight-clamping and edge-dropping reductions. *)
let eij_exact ~name gen =
  QCheck2.Test.make ~name ~count:200 gen (fun bounds_spec ->
      let bounds_spec =
        List.filter (fun (a, b, _) -> a <> b) bounds_spec
        |> List.sort_uniq compare
      in
      if bounds_spec = [] then true
      else begin
        let pctx = F.create_ctx () in
        let eij = Eij.create pctx in
        let vars =
          List.map
            (fun (a, b, c) ->
              let v =
                Eij.encode_view eij
                  (Bound.view
                     ~x:(Printf.sprintf "n%d" a)
                     ~y:(Printf.sprintf "n%d" b)
                     ~c)
              in
              ((a, b, c), v))
            bounds_spec
        in
        let f_trans = Eij.trans_constraints eij in
        (* every polarity pattern of the bound variables *)
        let n = List.length vars in
        let ok = ref true in
        for mask = 0 to (1 lsl n) - 1 do
          let lits =
            List.mapi
              (fun i (_, v) ->
                if mask lsr i land 1 = 1 then v else F.not_ pctx v)
              vars
          in
          let solver = Solver.create () in
          let ts = Tseitin.create solver in
          Tseitin.assert_root ts (F.and_list pctx (f_trans :: lits));
          let sat = Solver.solve solver = Solver.Sat in
          (* reference feasibility via Bellman-Ford *)
          let ds : unit Sepsat_theory.Diff_solver.t =
            Sepsat_theory.Diff_solver.create ()
          in
          List.iteri
            (fun i ((a, b, c), _) ->
              let x =
                Sepsat_theory.Diff_solver.node ds (Printf.sprintf "n%d" a)
              in
              let y =
                Sepsat_theory.Diff_solver.node ds (Printf.sprintf "n%d" b)
              in
              if mask lsr i land 1 = 1 then
                Sepsat_theory.Diff_solver.assert_le ds ~x ~y ~c ~tag:()
              else
                Sepsat_theory.Diff_solver.assert_le ds ~x:y ~y:x ~c:(-c - 1)
                  ~tag:())
            vars;
          let feasible = Sepsat_theory.Diff_solver.infeasibility ds = None in
          if sat <> feasible then ok := false
        done;
        !ok
      end)

let prop_eij_exact =
  eij_exact ~name:"F_trans characterizes realizability"
    QCheck2.Gen.(
      list_size (int_range 1 7)
        (triple (int_bound 3) (int_bound 3) (int_range (-3) 3)))

(* Two disjoint components (constants n0-n3 and n4-n7) with wider weights:
   each component gets its own S+/S- window, so clamping and dropping act
   per component, and longer paths reuse derived edges. *)
let prop_eij_exact_two_components =
  let bound off =
    QCheck2.Gen.(
      map
        (fun (a, d, c) -> (off + a, off + ((a + d) mod 4), c))
        (triple (int_bound 3) (int_range 1 3) (int_range (-6) 6)))
  in
  eij_exact ~name:"F_trans exact on two components"
    QCheck2.Gen.(
      map2 ( @ )
        (list_size (int_range 1 5) (bound 0))
        (list_size (int_range 1 4) (bound 4)))

(* Equalities over a triangle: every derived bound (weights clamp to
   {0,-1}) is an original predicate, in one orientation or the other, so
   elimination must reuse the originals' literals and allocate nothing. *)
let test_eij_derived_reuse () =
  let pctx = F.create_ctx () in
  let eij = Eij.create pctx in
  let is_p _ = false in
  let eq x y = Eij.encode_eq eij ~is_p (Ground.make x 0) (Ground.make y 0) in
  let ab = eq "a" "b" and bc = eq "b" "c" and ac = eq "a" "c" in
  let nb_vars = F.nb_vars pctx in
  let f_trans = Eij.trans_constraints eij in
  Alcotest.(check int) "no fresh variables" nb_vars (F.nb_vars pctx);
  Alcotest.(check bool) "constraints emitted" true
    (Eij.num_trans_constraints eij > 0);
  let sat lits =
    let solver = Solver.create () in
    Tseitin.assert_root (Tseitin.create solver) (F.and_list pctx (f_trans :: lits));
    Solver.solve solver = Solver.Sat
  in
  Alcotest.(check bool) "a=b, b=c, a<>c blocked" false
    (sat [ ab; bc; F.not_ pctx ac ]);
  Alcotest.(check bool) "a=b, b<>c, a<>c allowed" true
    (sat [ ab; F.not_ pctx bc; F.not_ pctx ac ])

(* The count-only replay is the same elimination: over bounds listed in
   allocation order it counts exactly the constraints [trans_constraints]
   emits, and the limit cuts it off just below that count. *)
let prop_fill_counts_trans =
  QCheck2.Test.make ~name:"fill counts what trans_constraints emits"
    ~count:300
    QCheck2.Gen.(
      list_size (int_range 1 12)
        (triple (int_bound 5) (int_range 1 5) (int_range (-4) 4)))
    (fun spec ->
      let pctx = F.create_ctx () in
      let eij = Eij.create pctx in
      let bounds =
        List.map
          (fun (a, d, c) ->
            let view =
              Bound.view
                ~x:(Printf.sprintf "n%d" a)
                ~y:(Printf.sprintf "n%d" ((a + d) mod 6))
                ~c
            in
            ignore (Eij.encode_view eij view);
            view.Bound.bound)
          spec
      in
      ignore (Eij.trans_constraints eij);
      let n = Eij.num_trans_constraints eij in
      Eij.fill ~limit:max_int bounds = Some n
      && Eij.fill ~limit:n bounds = Some n
      && (n = 0 || Eij.fill ~limit:(n - 1) bounds = None))

let encode_text ?(config = Hybrid.default) text =
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx text in
  let elim = Elim.eliminate ctx f in
  Hybrid.encode ~config ctx ~p_consts:elim.Elim.p_consts elim.Elim.formula

let test_hybrid_stats () =
  let enc = encode_text "(and (< x y) (= (f a) (f b)))" in
  let s = enc.Hybrid.stats in
  Alcotest.(check bool) "classes > 0" true (s.Hybrid.n_classes > 0);
  Alcotest.(check int) "all eij at default" 0 s.Hybrid.sd_classes;
  let enc2 = encode_text ~config:Hybrid.sd_only "(and (< x y) (= (f a) (f b)))" in
  Alcotest.(check int) "all sd" 0 enc2.Hybrid.stats.Hybrid.eij_classes

let test_hybrid_pure_p_atoms () =
  (* With an explicit p-classification, an equality between two distinct
     p-constants folds to false (the maximally diverse interpretation of
     paper 4 step 5), so its negation encodes as valid. *)
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(not (= p q))" in
  let enc =
    Hybrid.encode ctx ~p_consts:(Sset.of_list [ "p"; "q" ]) f
  in
  Alcotest.(check bool) "statically true" true
    (enc.Hybrid.f_bool == F.tru enc.Hybrid.prop_ctx);
  (* same p-constant with equal offsets folds to true *)
  let ctx2 = Ast.create_ctx () in
  let g = Parse.formula ctx2 "(= (+ p 2) (succ (succ p)))" in
  let enc2 = Hybrid.encode ctx2 ~p_consts:(Sset.of_list [ "p" ]) g in
  Alcotest.(check bool) "same ground true" true
    (enc2.Hybrid.f_bool == F.tru enc2.Hybrid.prop_ctx)

let () =
  Alcotest.run "encode"
    [
      ( "bitvec",
        [
          Alcotest.test_case "width_for" `Quick test_width_for;
          Alcotest.test_case "of_int/decode" `Quick test_of_int_decode;
          QCheck_alcotest.to_alcotest prop_bitvec_circuits;
          QCheck_alcotest.to_alcotest prop_bitvec_symbolic;
        ] );
      ( "eij",
        [
          Alcotest.test_case "variable sharing" `Quick test_eij_sharing;
          Alcotest.test_case "triangle realizability" `Quick test_eij_triangle;
          Alcotest.test_case "budget" `Quick test_trans_budget;
          Alcotest.test_case "derived bound reuses original" `Quick
            test_eij_derived_reuse;
          QCheck_alcotest.to_alcotest prop_eij_exact;
          QCheck_alcotest.to_alcotest prop_eij_exact_two_components;
          QCheck_alcotest.to_alcotest prop_fill_counts_trans;
        ] );
      ( "hybrid",
        [
          Alcotest.test_case "stats" `Quick test_hybrid_stats;
          Alcotest.test_case "pure-p atoms" `Quick test_hybrid_pure_p_atoms;
        ] );
    ]
