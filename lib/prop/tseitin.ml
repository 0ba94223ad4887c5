module Solver = Sepsat_sat.Solver
module Lit = Sepsat_sat.Lit

type mode = Full | Polarity

(* Every table is a dense array indexed by formula node id or variable
   index, grown by doubling on demand. A literal slot holds [Lit.to_int] or
   [absent]. *)
type t = {
  solver : Solver.t;
  mode : mode;
  mutable var_lits : int array;  (* formula var index -> solver literal *)
  mutable memo : int array;  (* formula node id -> solver literal *)
  mutable flags : Bytes.t;  (* node id -> set of the flag bits below *)
  mutable stamps : int array;  (* node id -> last [gather] call that kept it *)
  mutable stamp : int;
  mutable const_true : Lit.t option;
  mutable n_clauses : int;
}

let absent = -1

(* Flag bits: the gate's l => def clauses are out, its def => l clauses are
   out, the node was already asserted as a root. *)
let done_pos = 1

let done_neg = 2

let root_done = 4

(* Cap on n-ary flattening: an And/Or spine wider than this is split into
   nested gates so no single definition clause grows unboundedly (long
   clauses slow the two-watched-literal scheme's new-watch scan). *)
let max_width = 64

let create ?(mode = Polarity) solver =
  {
    solver;
    mode;
    var_lits = Array.make 256 absent;
    memo = Array.make 1024 absent;
    flags = Bytes.make 1024 '\000';
    stamps = Array.make 1024 0;
    stamp = 0;
    const_true = None;
    n_clauses = 0;
  }

(* A copy of [a] long enough to index [i], padded with [fill]. *)
let grow_array a i fill =
  let b = Array.make (max (i + 1) (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* Makes every per-node table cover node id [i]. *)
let reserve t i =
  if i >= Array.length t.memo then begin
    t.memo <- grow_array t.memo i absent;
    t.stamps <- grow_array t.stamps i 0;
    let flags = Bytes.make (Array.length t.memo) '\000' in
    Bytes.blit t.flags 0 flags 0 (Bytes.length t.flags);
    t.flags <- flags
  end

let has_flag t id bit =
  id < Bytes.length t.flags && Char.code (Bytes.get t.flags id) land bit <> 0

let set_flag t id bit =
  reserve t id;
  Bytes.set t.flags id (Char.chr (Char.code (Bytes.get t.flags id) lor bit))

let memo_find t id = if id < Array.length t.memo then t.memo.(id) else absent

let memo_add t id l =
  reserve t id;
  t.memo.(id) <- Lit.to_int l

let has_lit t id = memo_find t id <> absent

(* One registry-wide counter across every converter instance. *)
let m_clauses = Sepsat_obs.Metrics.handle Sepsat_obs.Metrics.counter "cnf.clauses"

let add_clause t (c : Lit.t array) =
  t.n_clauses <- t.n_clauses + 1;
  Sepsat_obs.Metrics.incr (m_clauses ());
  Solver.add_clause_array t.solver c

let find_var t i =
  if i < Array.length t.var_lits && t.var_lits.(i) <> absent then
    Some (Lit.of_int t.var_lits.(i))
  else None

let lit_of_var t i =
  if i < Array.length t.var_lits && t.var_lits.(i) <> absent then
    Lit.of_int t.var_lits.(i)
  else begin
    let l = Lit.pos (Solver.new_var t.solver) in
    if i >= Array.length t.var_lits then
      t.var_lits <- grow_array t.var_lits i absent;
    t.var_lits.(i) <- Lit.to_int l;
    l
  end

let true_lit t =
  match t.const_true with
  | Some l -> l
  | None ->
    let l = Lit.pos (Solver.new_var t.solver) in
    add_clause t [| l |];
    t.const_true <- Some l;
    l

(* -- Clause sets -------------------------------------------------------- *)

(* The solver literal of a [Formula.Clauses] literal. *)
let clause_lit t fl =
  let l = lit_of_var t (fl lsr 1) in
  if fl land 1 = 1 then Lit.neg l else l

(* [c] with [extra] prepended, in solver literals. *)
let clause_with t extra (c : int array) =
  let n = Array.length c in
  let a = Array.make (n + 1) extra in
  for i = 0 to n - 1 do
    a.(i + 1) <- clause_lit t c.(i)
  done;
  a

(* Adds [l1 ∧ ... ∧ ln => l]. Past [max_width] antecedents, each group of
   [max_width] gets a gate [g] with [group => g] and the gates become the
   antecedents, so no clause is wider than [max_width + 1]. *)
let rec imply_from_all t (ls : Lit.t array) l =
  let n = Array.length ls in
  if n <= max_width then
    add_clause t
      (Array.init (n + 1) (fun i -> if i = 0 then l else Lit.neg ls.(i - 1)))
  else
    imply_from_all t
      (Array.init
         ((n + max_width - 1) / max_width)
         (fun j ->
           let g = Lit.pos (Solver.new_var t.solver) in
           let lo = j * max_width in
           imply_from_all t (Array.sub ls lo (min max_width (n - lo))) g;
           g))
      l

(* The definition of gate [l] for the clause set [cs]. The positive
   direction is one clause [¬l ∨ Cᵢ] per clause. The negative direction
   gives each clause an indicator [dᵢ] with [Cᵢ => dᵢ] (one binary clause
   per literal) and then adds [d₁ ∧ ... ∧ dₙ => l]. *)
let define_clauses t l cs ~pos ~neg =
  if pos then
    Array.iter (fun c -> add_clause t (clause_with t (Lit.neg l) c)) cs;
  if neg then
    imply_from_all t
      (Array.map
         (fun c ->
           let d = Lit.pos (Solver.new_var t.solver) in
           Array.iter
             (fun fl -> add_clause t [| d; Lit.neg (clause_lit t fl) |])
             c;
           d)
         cs)
      l

(* -- Full (both-direction, binary) conversion --------------------------- *)

let rec encode_full t (f : Formula.t) =
  let m = memo_find t f.id in
  if m <> absent then Lit.of_int m
  else
    let l =
      match f.node with
      | Formula.True -> true_lit t
      | Formula.False -> Lit.neg (true_lit t)
      | Formula.Var i -> lit_of_var t i
      | Formula.Not g -> Lit.neg (encode_full t g)
      | Formula.And (a, b) ->
        let la = encode_full t a and lb = encode_full t b in
        let l = Lit.pos (Solver.new_var t.solver) in
        add_clause t [| Lit.neg l; la |];
        add_clause t [| Lit.neg l; lb |];
        add_clause t [| l; Lit.neg la; Lit.neg lb |];
        l
      | Formula.Or (a, b) ->
        let la = encode_full t a and lb = encode_full t b in
        let l = Lit.pos (Solver.new_var t.solver) in
        add_clause t [| Lit.neg l; la; lb |];
        add_clause t [| l; Lit.neg la |];
        add_clause t [| l; Lit.neg lb |];
        l
      | Formula.Clauses cs ->
        let l = Lit.pos (Solver.new_var t.solver) in
        define_clauses t l cs ~pos:true ~neg:true;
        l
    in
    memo_add t f.id l;
    l

(* -- Polarity-aware (Plaisted-Greenbaum) conversion ---------------------- *)

let gate_lit t (f : Formula.t) =
  let m = memo_find t f.id in
  if m <> absent then Lit.of_int m
  else begin
    let l = Lit.pos (Solver.new_var t.solver) in
    memo_add t f.id l;
    l
  end

(* Children of the same-connective spine rooted at [f] (an And or Or gate),
   deduplicated. Flattening stops at nodes that already carry a gate literal
   (shared subformulas keep their single definition) and at [max_width].
   A node is already kept when its stamp equals this call's. *)
let gather t (f : Formula.t) =
  let is_and = match f.node with Formula.And _ -> true | _ -> false in
  reserve t f.id;
  t.stamp <- t.stamp + 1;
  let acc = ref [] in
  let count = ref 0 in
  let rec go (g : Formula.t) =
    let flatten =
      !count < max_width
      && (not (has_lit t g.id))
      &&
      match (g.node, is_and) with
      | Formula.And _, true | Formula.Or _, false -> true
      | _ -> false
    in
    if flatten then
      match g.node with
      | Formula.And (a, b) | Formula.Or (a, b) ->
        go a;
        go b
      | _ -> assert false
    else if t.stamps.(g.id) <> t.stamp then begin
      t.stamps.(g.id) <- t.stamp;
      acc := g :: !acc;
      incr count
    end
  in
  (match f.node with
  | Formula.And (a, b) | Formula.Or (a, b) ->
    go a;
    go b
  | _ -> assert false);
  List.rev !acc

(* Which of the requested definition directions of gate [f] are still to
   be emitted; marks them emitted. *)
let pending t (f : Formula.t) ~pos ~neg =
  let need_pos = pos && not (has_flag t f.id done_pos) in
  let need_neg = neg && not (has_flag t f.id done_neg) in
  if need_pos then set_flag t f.id done_pos;
  if need_neg then set_flag t f.id done_neg;
  (need_pos, need_neg)

(* Returns the literal for [f], emitting only the definition directions that
   the occurrence polarity demands: [pos] asks for l => def (the node occurs
   under an even number of negations), [neg] for def => l. Directions are
   tracked per gate, so a shared node seen under both polarities ends up
   fully defined while single-polarity nodes stay at half price. *)
let rec encode_pg t (f : Formula.t) ~pos ~neg =
  match f.node with
  | Formula.True -> true_lit t
  | Formula.False -> Lit.neg (true_lit t)
  | Formula.Var i -> lit_of_var t i
  | Formula.Not g -> Lit.neg (encode_pg t g ~pos:neg ~neg:pos)
  | Formula.Clauses cs ->
    let l = gate_lit t f in
    let need_pos, need_neg = pending t f ~pos ~neg in
    define_clauses t l cs ~pos:need_pos ~neg:need_neg;
    l
  | Formula.And _ | Formula.Or _ ->
    let l = gate_lit t f in
    let need_pos, need_neg = pending t f ~pos ~neg in
    if need_pos || need_neg then begin
      let children = gather t f in
      let clits =
        List.map (fun g -> encode_pg t g ~pos:need_pos ~neg:need_neg) children
      in
      match f.node with
      | Formula.And _ ->
        if need_pos then
          List.iter (fun c -> add_clause t [| Lit.neg l; c |]) clits;
        if need_neg then
          add_clause t (Array.of_list (l :: List.map Lit.neg clits))
      | Formula.Or _ ->
        if need_pos then add_clause t (Array.of_list (Lit.neg l :: clits));
        if need_neg then
          List.iter (fun c -> add_clause t [| l; Lit.neg c |]) clits
      | _ -> assert false
    end;
    l

let encode t f =
  match t.mode with
  | Full -> encode_full t f
  | Polarity -> encode_pg t f ~pos:true ~neg:true

let rec assert_root t (f : Formula.t) =
  match (t.mode, f.node) with
  | _, Formula.Clauses cs ->
    (* A clause set at the root goes in verbatim: no gate, no indicator. *)
    if not (has_flag t f.id root_done) then begin
      set_flag t f.id root_done;
      Array.iter (fun c -> add_clause t (Array.map (clause_lit t) c)) cs
    end
  | Full, _ -> add_clause t [| encode_full t f |]
  | Polarity, _ ->
    if not (has_flag t f.id root_done) then begin
      set_flag t f.id root_done;
      match f.node with
      | Formula.True -> ()
      | Formula.False -> add_clause t [||]
      | Formula.And (a, b) when not (has_lit t f.id) ->
        (* A conjunctive root splits into several roots: no gate variable,
           no definition clauses. *)
        assert_root t a;
        assert_root t b
      | Formula.Or _ when not (has_lit t f.id) ->
        (* A disjunctive root becomes a single clause over its children. *)
        let clits =
          List.map (fun g -> encode_pg t g ~pos:true ~neg:false) (gather t f)
        in
        add_clause t (Array.of_list clits)
      | _ -> add_clause t [| encode_pg t f ~pos:true ~neg:false |]
    end

let clauses_added t = t.n_clauses
