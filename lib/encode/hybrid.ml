module F = Sepsat_prop.Formula
module Ast = Sepsat_suf.Ast
module Sset = Sepsat_util.Sset
module Sep = Sepsat_sep
module Classes = Sep.Classes
module Normal = Sep.Normal
module Ground = Sep.Ground
module Bound = Sep.Bound
module Brute = Sep.Brute
module Diff_solver = Sepsat_theory.Diff_solver
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics

exception Translation_blowup

type config = { threshold : int; fill_check : bool }

let default_threshold = 700

(* Transitivity-constraint budget of every EIJ translation. *)
let default_budget = 500_000

let default = { threshold = default_threshold; fill_check = true }

let sd_only = { threshold = -1; fill_check = false }

let eij_only = { threshold = max_int; fill_check = false }

let hybrid ?(threshold = default_threshold) () =
  { threshold; fill_check = false }

type stats = {
  n_classes : int;
  sd_classes : int;
  eij_classes : int;
  total_sep_cnt : int;
  eij_predicates : int;
  trans_constraints : int;
  bool_size : int;
}

type encoded = {
  prop_ctx : F.ctx;
  f_bool : F.t;
  stats : stats;
  decode : (int -> bool) -> Brute.assignment;
}

let m_trans = Metrics.handle Metrics.counter "encode.trans_constraints"

let m_eij_predicates = Metrics.handle Metrics.counter "encode.eij_predicates"

let m_sd_classes = Metrics.handle Metrics.counter "encode.sd_classes"

let m_eij_classes = Metrics.handle Metrics.counter "encode.eij_classes"

type method_choice = Use_sd | Use_eij

type fill = Unchecked | Fill of int | Over_cap

type decision = {
  class_id : int;
  sep_cnt : int;
  sd_est : int;
  fill : fill;
  choice : method_choice;
}

(* EIJ goes ahead of SD iff SepCnt + fill <= fill_margin * SD_est. *)
let fill_margin = 1.5

(* ⌈log₂ r⌉ *)
let bits r =
  let rec go b = if 1 lsl b >= r then b else go (b + 1) in
  go 0

module Int_tbl = Hashtbl.Make (Int)

(* The bounds Eij allocates for a class's atoms: one per leaf pair of an
   inequality, two per leaf pair of an equality, none where Bound settles the
   comparison statically. Side terms are shared across atoms, so their
   leaves are read once each. Pairs with the same two bases, comparison and
   offset difference give the same bounds, so only the first of them reaches
   Bound; {!Eij.fill} counts any other repeats once. *)
let class_bounds classes id =
  let is_p = Classes.is_p classes in
  let base_ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let base_id b =
    match Hashtbl.find_opt base_ids b with
    | Some i -> i
    | None ->
      let i = Hashtbl.length base_ids in
      Hashtbl.add base_ids b i;
      i
  in
  let lo = ref 0 and hi = ref 0 in
  let memo = Int_tbl.create 64 in
  let leaves (t : Ast.term) =
    match Int_tbl.find_opt memo t.tid with
    | Some a -> a
    | None ->
      let a =
        Array.of_list
          (List.map
             (fun (g : Ground.t) ->
               lo := min !lo g.offset;
               hi := max !hi g.offset;
               (g, base_id g.base))
             (Normal.leaves t))
      in
      Int_tbl.add memo t.tid a;
      a
  in
  let atoms =
    List.map
      (fun (atom : Ast.formula) ->
        match atom.fnode with
        | Ast.Eq (t1, t2) -> (0, leaves t1, leaves t2)
        | Ast.Lt (t1, t2) -> (1, leaves t1, leaves t2)
        | _ -> assert false)
      (Classes.class_atoms classes id)
  in
  (* One int per key: (base pair, comparison) major, offset difference minor,
     when that fits; else every pair is its own key. *)
  let nb = Hashtbl.length base_ids and span = (2 * (!hi - !lo)) + 1 in
  let packs = nb < 1 lsl 20 && span < 1 lsl 20 in
  let seen = Int_tbl.create 1024 in
  let bounds = ref [] in
  List.iter
    (fun (kind, l1, l2) ->
      Array.iter
        (fun ((g1 : Ground.t), b1) ->
          Array.iter
            (fun ((g2 : Ground.t), b2) ->
              let key =
                (((((b1 * nb) + b2) * 2) + kind) * span)
                + (g2.offset - g1.offset - (!lo - !hi))
              in
              if not (packs && Int_tbl.mem seen key) then begin
                if packs then Int_tbl.add seen key ();
                if kind = 0 then
                  match Bound.eq_grounds ~is_p g1 g2 with
                  | `Static _ -> ()
                  | `Conj (v1, v2) ->
                    bounds := v2.Bound.bound :: v1.Bound.bound :: !bounds
                else
                  match Bound.lt_grounds ~is_p g1 g2 with
                  | `Static _ -> ()
                  | `Bound v -> bounds := v.Bound.bound :: !bounds
              end)
            l2)
        l1)
    atoms;
  List.rev !bounds

(* The paper's rule: SD iff SepCnt > SEP_THOLD. Under [fill_check], a class
   above the threshold still goes to EIJ when EIJ's estimated size, SepCnt
   plus the fill of vertex elimination, is within [fill_margin] of SD's,
   bits(range) times the class's ground leaves. The fill is replayed only
   up to the difference, so the check never costs a blowup. *)
let decide_class config classes (c : Classes.class_info) =
  let sd_est = bits c.range * c.leaf_cnt in
  let decision fill choice =
    { class_id = c.id; sep_cnt = c.sep_cnt; sd_est; fill; choice }
  in
  if c.sep_cnt <= config.threshold then decision Unchecked Use_eij
  else if not config.fill_check then decision Unchecked Use_sd
  else
    let cap = int_of_float (fill_margin *. float_of_int sd_est) - c.sep_cnt in
    let d =
      if cap <= 0 then decision Over_cap Use_sd
      else
        match Eij.fill ~limit:cap (class_bounds classes c.id) with
        | Some n -> decision (Fill n) Use_eij
        | None -> decision Over_cap Use_sd
    in
    if Obs.enabled () then
      Obs.record
        ~data:
          [
            ("class", string_of_int c.id);
            ("sep_cnt", string_of_int c.sep_cnt);
            ("sd_est", string_of_int sd_est);
            ( "fill",
              match d.fill with Fill n -> string_of_int n | _ -> "over cap" );
            ("choice", if d.choice = Use_sd then "SD" else "EIJ");
          ]
        Obs.Event "encode.choice";
    d

let select config classes =
  Obs.span ~cat:"encode" "encode.select" (fun () ->
      Array.map (decide_class config classes) (Classes.classes classes))

let prepare ctx ~p_consts formula =
  let formula =
    Obs.span ~cat:"encode" "normalize" (fun () -> Normal.normalize ctx formula)
  in
  let classes =
    Obs.span ~cat:"encode" "classes" (fun () -> Classes.build ~p_consts formula)
  in
  (formula, classes)

let decisions ?(config = default) ctx ~p_consts formula =
  let _, classes = prepare ctx ~p_consts formula in
  (classes, select config classes)

(* Fixed values realizing the maximally diverse interpretation: above every
   value a class bit-vector can reach, spaced wider than any pair of offsets
   can bridge. *)
let p_value_fun classes ~p_consts =
  let infos = Classes.classes classes in
  let global_reach =
    Array.fold_left
      (fun acc (c : Classes.class_info) ->
        max acc (c.range + c.shift - 1 + max 0 c.umax))
      0 infos
  in
  let p_names = Sset.elements p_consts in
  let max_abs_offset =
    List.fold_left
      (fun acc name ->
        let l, u = Classes.offsets classes name in
        max acc (max (abs l) (abs u)))
      (Array.fold_left
         (fun acc (c : Classes.class_info) ->
           List.fold_left
             (fun acc m ->
               let l, u = Classes.offsets classes m in
               max acc (max (abs l) (abs u)))
             acc c.members)
         0 infos)
      p_names
  in
  let spacing = (2 * max_abs_offset) + 1 in
  let base = global_reach + spacing in
  let table = Hashtbl.create 16 in
  List.iteri (fun i name -> Hashtbl.add table name (base + (i * spacing))) p_names;
  fun name ->
    match Hashtbl.find_opt table name with
    | Some v -> v
    | None -> invalid_arg (Printf.sprintf "Hybrid: unknown p-constant %S" name)

let encode ?(config = default) ?(deadline = Sepsat_util.Deadline.none) ctx
    ~p_consts formula =
  let formula, classes = prepare ctx ~p_consts formula in
  let infos = Classes.classes classes in
  let pctx = F.create_ctx () in
  let choice = Array.map (fun d -> d.choice) (select config classes) in
  let p_value = p_value_fun classes ~p_consts in
  let sd = Sd.create pctx classes ~p_value in
  let eij = Eij.create ~budget:default_budget pctx in
  let is_p name = Classes.is_p classes name in
  let gmap = Sep.Ground_map.create ctx in
  let bconst_vars : (string, F.t) Hashtbl.t = Hashtbl.create 16 in
  let fmemo : (int, F.t) Hashtbl.t = Hashtbl.create 1024 in
  let rec encode_f (f : Ast.formula) =
    match Hashtbl.find_opt fmemo f.fid with
    | Some p -> p
    | None ->
      let p =
        match f.fnode with
        | Ast.Ftrue -> F.tru pctx
        | Ast.Ffalse -> F.fls pctx
        | Ast.Not g -> F.not_ pctx (encode_f g)
        | Ast.And (a, b) -> F.and_ pctx (encode_f a) (encode_f b)
        | Ast.Or (a, b) -> F.or_ pctx (encode_f a) (encode_f b)
        | Ast.Bconst name -> (
          match Hashtbl.find_opt bconst_vars name with
          | Some v -> v
          | None ->
            let v = F.fresh_var pctx in
            Hashtbl.add bconst_vars name v;
            v)
        | Ast.Eq _ | Ast.Lt _ -> encode_atom f
        | Ast.Papp (name, _) ->
          invalid_arg
            (Printf.sprintf "Hybrid.encode: application of %S present" name)
      in
      Hashtbl.add fmemo f.fid p;
      p
  and encode_atom atom =
    (* EIJ (or pure-p): enumerate ground pairs with their ITE path
       conditions — the Bryant et al. technique of paper §4 step 5. *)
    let encode_eij () =
      match atom.Ast.fnode with
      | Ast.Eq (t1, t2) -> encode_pairs t1 t2 (Eij.encode_eq eij ~is_p)
      | Ast.Lt (t1, t2) -> encode_pairs t1 t2 (Eij.encode_lt eij ~is_p)
      | _ -> assert false
    in
    match Classes.atom_class classes atom with
    | Some cls when choice.(cls.Classes.id) = Use_sd ->
      Sd.encode_atom sd ~encode_formula:encode_f ~cls atom
    | Some _ | None -> encode_eij ()
  and encode_pairs t1 t2 encode_ground_pair =
    let g1s = Sep.Ground_map.of_term gmap t1 in
    let g2s = Sep.Ground_map.of_term gmap t2 in
    let disjuncts =
      List.concat_map
        (fun (g1, c1) ->
          List.map
            (fun (g2, c2) ->
              F.and_ pctx
                (F.and_ pctx (encode_f c1) (encode_f c2))
                (encode_ground_pair g1 g2))
            g2s)
        g1s
    in
    F.or_list pctx disjuncts
  in
  let f_bvar =
    Obs.span ~cat:"encode" "encode.bvar" (fun () ->
        try encode_f formula
        with Eij.Translation_blowup -> raise Translation_blowup)
  in
  let f_trans =
    Obs.span ~cat:"encode" "encode.trans" (fun () ->
        try Eij.trans_constraints ~deadline eij
        with Eij.Translation_blowup -> raise Translation_blowup)
  in
  let f_domain =
    Obs.span ~cat:"encode" "encode.domain" (fun () -> Sd.domain_constraints sd)
  in
  (* F_bool = (F_trans ∧ domain) ⟹ F_bvar: falsifying models must respect
     both the realizability constraints and the finite domains. *)
  let f_bool = F.implies pctx (F.and_ pctx f_trans f_domain) f_bvar in
  let sd_classes =
    Array.fold_left (fun n c -> if c = Use_sd then n + 1 else n) 0 choice
  in
  let stats =
    {
      n_classes = Array.length infos;
      sd_classes;
      eij_classes = Array.length infos - sd_classes;
      total_sep_cnt = Classes.total_sep_cnt classes;
      eij_predicates = Eij.num_predicates eij;
      trans_constraints = Eij.num_trans_constraints eij;
      bool_size = F.size f_bool;
    }
  in
  if Obs.enabled () then begin
    Metrics.add (m_trans ()) stats.trans_constraints;
    Metrics.add (m_eij_predicates ()) stats.eij_predicates;
    Metrics.add (m_sd_classes ()) stats.sd_classes;
    Metrics.add (m_eij_classes ()) stats.eij_classes
  end;
  let decode assign =
    let bools =
      Hashtbl.fold
        (fun name v acc -> (name, F.eval assign v) :: acc)
        bconst_vars []
      |> List.sort compare
    in
    (* SD allocates bit-vectors only for the constants of the classes it
       encodes. *)
    let sd_ints = Sd.decode_consts sd assign in
    (* EIJ classes: rebuild the difference constraints a model asserts and
       read integer values off shortest paths, then shift each class below
       the p-constant region (classes are independent, so a uniform per-class
       shift is invisible to every encoded atom). *)
    let eij_ints = ref [] in
    let by_class : (int, (Bound.t * bool) list ref) Hashtbl.t =
      Hashtbl.create 8
    in
    List.iter
      (fun ((b : Bound.t), v) ->
        match Classes.const_class classes b.Bound.x with
        | None -> assert false
        | Some cls ->
          let r =
            match Hashtbl.find_opt by_class cls.Classes.id with
            | Some r -> r
            | None ->
              let r = ref [] in
              Hashtbl.add by_class cls.Classes.id r;
              r
          in
          r := (b, F.eval assign v) :: !r)
      (Eij.bounds eij);
    let global_reach =
      Array.fold_left
        (fun acc (c : Classes.class_info) ->
          max acc (c.range + c.shift - 1 + max 0 c.umax))
        0 infos
    in
    Array.iter
      (fun (cls : Classes.class_info) ->
        if choice.(cls.id) = Use_eij then begin
          let ds = Diff_solver.create () in
          List.iter (fun m -> ignore (Diff_solver.node ds m)) cls.members;
          (match Hashtbl.find_opt by_class cls.id with
          | None -> ()
          | Some constraints ->
            List.iter
              (fun ((b : Bound.t), value) ->
                let x = Diff_solver.node ds b.Bound.x in
                let y = Diff_solver.node ds b.Bound.y in
                if value then Diff_solver.assert_le ds ~x ~y ~c:b.Bound.c ~tag:()
                else
                  Diff_solver.assert_le ds ~x:y ~y:x ~c:(-b.Bound.c - 1)
                    ~tag:())
              !constraints);
          let values = Diff_solver.model ds in
          let maxv = List.fold_left (fun acc (_, v) -> max acc v) 0 values in
          let delta = global_reach - maxv in
          List.iter
            (fun (name, v) -> eij_ints := (name, v + delta) :: !eij_ints)
            values
        end)
      infos;
    let p_ints = List.map (fun name -> (name, p_value name)) (Sset.elements p_consts) in
    (* Only constants of the formula matter; extra p entries are harmless. *)
    { Brute.ints = sd_ints @ List.sort compare !eij_ints @ p_ints; bools }
  in
  { prop_ctx = pctx; f_bool; stats; decode }
