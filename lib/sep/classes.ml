module Ast = Sepsat_suf.Ast
module Sset = Sepsat_util.Sset
module Union_find = Sepsat_util.Union_find

type class_info = {
  id : int;
  members : string list;
  range : int;
  shift : int;
  umax : int;
  sep_cnt : int;
  leaf_cnt : int;
  p_neighbors : Sset.t;
}

type t = {
  infos : class_info array;
  class_atoms : Ast.formula list array;  (* class id -> its atoms *)
  const_to_class : (string, int) Hashtbl.t;  (* g-constant -> class id *)
  atom_to_class : (int, int option) Hashtbl.t;  (* atom fid -> class id *)
  offs : (string, int * int) Hashtbl.t;  (* constant -> (l, u) *)
  p_consts : Sset.t;
  total_sep : int;
  n_atoms : int;
}

let build ~p_consts formula =
  let atoms = Ast.atoms formula in
  (* Index the g-constants. *)
  let g_names =
    Ast.functions formula
    |> List.filter_map (fun (name, arity) ->
           if arity > 0 then
             invalid_arg "Classes.build: formula contains applications"
           else if Sset.mem name p_consts then None
           else Some name)
  in
  let g_index = Hashtbl.create 64 in
  List.iteri (fun i name -> Hashtbl.add g_index name i) g_names;
  let g_count = List.length g_names in
  let g_array = Array.of_list g_names in
  let uf = Union_find.create g_count in
  (* Offsets of every constant, p included. *)
  let offs = Hashtbl.create 64 in
  let note_leaf (g : Ground.t) =
    let l, u =
      try Hashtbl.find offs g.Ground.base with Not_found -> (g.offset, g.offset)
    in
    Hashtbl.replace offs g.Ground.base (min l g.offset, max u g.offset)
  in
  (* Dependency set of a term, summarized as its class representative after
     merging everything inside the set; [None] = pure-p term. *)
  let dep_memo = Hashtbl.create 256 in
  let rec dep (t : Ast.term) =
    match Hashtbl.find_opt dep_memo t.tid with
    | Some d -> d
    | None ->
      let d =
        match t.tnode with
        | Ast.Const _ | Ast.Succ _ | Ast.Pred _ ->
          let g = Normal.ground_of_term t in
          note_leaf g;
          Hashtbl.find_opt g_index g.Ground.base
        | Ast.Tite (_, a, b) -> (
          match (dep a, dep b) with
          | None, d | d, None -> d
          | Some i, Some j ->
            Union_find.union uf i j;
            Some (Union_find.find uf i))
        | Ast.App _ -> invalid_arg "Classes.build: application present"
      in
      Hashtbl.add dep_memo t.tid d;
      d
  in
  let atom_sides f =
    match (f : Ast.formula).fnode with
    | Ast.Eq (t1, t2) | Ast.Lt (t1, t2) -> (t1, t2)
    | _ -> assert false
  in
  (* First pass: merge classes across every atom. *)
  List.iter
    (fun atom ->
      let t1, t2 = atom_sides atom in
      match (dep t1, dep t2) with
      | Some i, Some j -> Union_find.union uf i j
      | None, _ | _, None -> ())
    atoms;
  (* Resolve representatives into dense class ids. *)
  let rep_to_id = Hashtbl.create 16 in
  let class_members = Hashtbl.create 16 in
  Array.iteri
    (fun i name ->
      let rep = Union_find.find uf i in
      let id =
        match Hashtbl.find_opt rep_to_id rep with
        | Some id -> id
        | None ->
          let id = Hashtbl.length rep_to_id in
          Hashtbl.add rep_to_id rep id;
          id
      in
      let members =
        try Hashtbl.find class_members id with Not_found -> []
      in
      Hashtbl.replace class_members id (name :: members))
    g_array;
  let n_classes = Hashtbl.length rep_to_id in
  let class_of_const name =
    match Hashtbl.find_opt g_index name with
    | None -> None
    | Some i -> Some (Hashtbl.find rep_to_id (Union_find.find uf i))
  in
  (* Second pass: per-atom class, SepCnt and p-neighbors. *)
  let sep_cnt = Array.make n_classes 0 in
  let leaf_cnt = Array.make n_classes 0 in
  let class_atoms = Array.make n_classes [] in
  let p_neighbors = Array.make n_classes Sset.empty in
  let atom_to_class = Hashtbl.create 64 in
  let total_sep = ref 0 in
  List.iter
    (fun atom ->
      let t1, t2 = atom_sides atom in
      let leaves1 = Normal.leaves t1 and leaves2 = Normal.leaves t2 in
      let n1 = List.length leaves1 and n2 = List.length leaves2 in
      let m = n1 * n2 in
      total_sep := !total_sep + m;
      let cls =
        match (dep t1, dep t2) with
        | Some i, _ | _, Some i ->
          Some (Hashtbl.find rep_to_id (Union_find.find uf i))
        | None, None -> None
      in
      Hashtbl.replace atom_to_class atom.Ast.fid cls;
      match cls with
      | None -> ()
      | Some id ->
        sep_cnt.(id) <- sep_cnt.(id) + m;
        leaf_cnt.(id) <- leaf_cnt.(id) + n1 + n2;
        class_atoms.(id) <- atom :: class_atoms.(id);
        let note (g : Ground.t) =
          if Sset.mem g.Ground.base p_consts then
            p_neighbors.(id) <- Sset.add g.Ground.base p_neighbors.(id)
        in
        List.iter note leaves1;
        List.iter note leaves2)
    atoms;
  let offsets_of name =
    try Hashtbl.find offs name with Not_found -> (0, 0)
  in
  let infos =
    Array.init n_classes (fun id ->
        let members =
          List.sort String.compare (Hashtbl.find class_members id)
        in
        (* Small-model range: the smaller of two sufficient bounds.
           - Gap compression: in any model, sort the member values and
             compress every gap to at most W + 1, where W = max u − min l
             bounds the offset difference any atom can compare across; all
             cross-member comparisons v_i + a ⋈ v_j + b keep their outcome.
             Hence (n − 1)(W + 1) + 1 values suffice.
           - Per-variable budget (the paper's Σ formula, with offsets
             0-extended — without the extension it is insufficient, see the
             module interface): Σ_v (max(0, u(v)) − min(0, l(v)) + 1). *)
        let shift, umax, lmin, budget =
          List.fold_left
            (fun (shift, umax, lmin, budget) name ->
              let l, u = offsets_of name in
              ( max shift (-l),
                max umax u,
                min lmin l,
                budget + max 0 u - min 0 l + 1 ))
            (0, 0, 0, 0) members
        in
        let spread = umax - lmin in
        let compression = ((List.length members - 1) * (spread + 1)) + 1 in
        let range = min compression budget in
        {
          id;
          members;
          range;
          shift;
          umax;
          sep_cnt = sep_cnt.(id);
          leaf_cnt = leaf_cnt.(id);
          p_neighbors = p_neighbors.(id);
        })
  in
  let const_to_class = Hashtbl.create 64 in
  List.iter
    (fun name ->
      match class_of_const name with
      | Some id -> Hashtbl.add const_to_class name id
      | None -> assert false)
    g_names;
  {
    infos;
    class_atoms = Array.map List.rev class_atoms;
    const_to_class;
    atom_to_class;
    offs;
    p_consts;
    total_sep = !total_sep;
    n_atoms = List.length atoms;
  }

let classes t = t.infos

let class_atoms t id = t.class_atoms.(id)

let atom_class t atom =
  match Hashtbl.find_opt t.atom_to_class (atom : Ast.formula).fid with
  | None -> raise Not_found
  | Some None -> None
  | Some (Some id) -> Some t.infos.(id)

let const_class t name =
  if Sset.mem name t.p_consts then None
  else
    match Hashtbl.find_opt t.const_to_class name with
    | Some id -> Some t.infos.(id)
    | None -> raise Not_found

let is_p t name = Sset.mem name t.p_consts

let offsets t name = try Hashtbl.find t.offs name with Not_found -> (0, 0)

let total_sep_cnt t = t.total_sep

let num_atoms t = t.n_atoms
