module F = Sepsat_prop.Formula
module Bound = Sepsat_sep.Bound
module Ground = Sepsat_sep.Ground
module Vec = Sepsat_util.Vec
module Union_find = Sepsat_util.Union_find

exception Translation_blowup

module Bound_map = Map.Make (Bound)

type t = {
  pctx : F.ctx;
  budget : int;
  mutable evars : F.t Bound_map.t;  (* canonical bound -> variable *)
  mutable originals : (Bound.t * F.t) list;
  mutable n_trans : int;
}

let create ?(budget = 2_000_000) pctx =
  { pctx; budget; evars = Bound_map.empty; originals = []; n_trans = 0 }

let var_of_bound t bound =
  match Bound_map.find_opt bound t.evars with
  | Some v -> v
  | None ->
    let v = F.fresh_var t.pctx in
    t.evars <- Bound_map.add bound v t.evars;
    t.originals <- (bound, v) :: t.originals;
    v

let encode_view t (view : Bound.view) =
  let v = var_of_bound t view.Bound.bound in
  if view.Bound.negated then F.not_ t.pctx v else v

let encode_eq t ~is_p g1 g2 =
  match Bound.eq_grounds ~is_p g1 g2 with
  | `Static b -> F.of_bool t.pctx b
  | `Conj (v1, v2) -> F.and_ t.pctx (encode_view t v1) (encode_view t v2)

let encode_lt t ~is_p g1 g2 =
  match Bound.lt_grounds ~is_p g1 g2 with
  | `Static b -> F.of_bool t.pctx b
  | `Bound v -> encode_view t v

let num_predicates t = Bound_map.cardinal t.evars

let num_trans_constraints t = t.n_trans

(* -- Transitivity constraints by vertex elimination ----------------------- *)

(* An edge asserts src − dst <= weight whenever lit holds. Each predicate
   variable contributes the edge of its bound and the reverse strict edge of
   its negation. Vertices are the constants of [t.originals], interned to
   dense ids once per call; [lit] is a formula-level literal in the
   [F.Clauses] packing: [2*i] for variable [i], [2*i+1] for its negation. *)

type edge = { src : int; dst : int; weight : int; lit : int }

module Edge_tbl = Hashtbl.Make (struct
  type t = int * int * int (* src, dst, weight *)

  let equal ((a : int), (b : int), (c : int)) (a', b', c') =
    a = a' && b = b' && c = c'

  (* Inline arithmetic, not the polymorphic [Hashtbl.hash]: this table is
     probed once per elimination pair. The table is never iterated, so the
     hash cannot affect the output. *)
  let hash (a, b, c) = ((((a * 65599) + b) * 65599) + c) land max_int
end)

let pos_lit v = 2 * F.var_index v

(* Dense ids for the constants of a set of bounds, in order of first
   occurrence; [names] maps them back. *)
type vertices = { ids : (string, int) Hashtbl.t; names : string Vec.t }

let vertices () = { ids = Hashtbl.create 64; names = Vec.create ~dummy:"" }

let intern vs s =
  match Hashtbl.find_opt vs.ids s with
  | Some i -> i
  | None ->
    let i = Vec.size vs.names in
    Hashtbl.add vs.ids s i;
    Vec.push vs.names s;
    i

(* The elimination itself, over [originals]: distinct canonical bounds
   [x − y <= c] as [(x, y, c, lit)], with [x] and [y] interned in [vs] and
   [lit] the literal of the bound's variable. [fresh ()] gives the literal
   of a new derived bound; every transitivity constraint goes to [emit] as
   a clause. {!trans_constraints} and {!fill} differ only in these two
   callbacks. *)
let eliminate_all vs ~fresh ~emit originals =
  let n = Vec.size vs.names in
  (* Weight window, per connected component. Every edge arising during
     elimination stands for a simple path of original edges, so its weight is
     at most S+ (the component's sum of positive original weights) and at
     least -S- (the sum of negative magnitudes). Two exact reductions follow:
     - an edge with weight >= S- can never close a negative cycle (every
       completion weighs at least -S-): drop it;
     - weights below floor = -S+ - 1 all behave identically (every completion
       weighs at most S+, so the cycle is negative regardless): clamp them
       to the floor.
     On equality-dominated components (weights in {0,-1}) this collapses the
     derived weights to {0,-1}, keeping F_trans near the Bryant-Velev
     polynomial bound; components with long offset chains still blow up — as
     the paper observes they must. *)
  let uf = Union_find.create n in
  List.iter (fun (x, y, _, _) -> Union_find.union uf x y) originals;
  let s_plus = Array.make n 0 and s_minus = Array.make n 0 in
  List.iter
    (fun (x, _, c, _) ->
      let r = Union_find.find uf x in
      (* both orientations of the bound: weights c and -c-1 *)
      List.iter
        (fun w ->
          s_plus.(r) <- s_plus.(r) + max 0 w;
          s_minus.(r) <- s_minus.(r) + max 0 (-w))
        [ c; -c - 1 ])
    originals;
  let comp v = Union_find.find uf v in
  let floor = Array.init n (fun v -> -s_plus.(comp v) - 1) in
  let cap = Array.init n (fun v -> s_minus.(comp v)) in
  let useless u w = w >= cap.(u) in
  let normalize u w = if w < floor.(u) then floor.(u) else w in
  (* One literal per (src, dst, weight), seeded with both orientations of
     every original predicate. A derived bound that hits an entry reuses its
     literal (an original's truth is then further constrained, which is sound
     and sharpens the encoding); a miss gets a fresh variable and an edge. *)
  let lits = Edge_tbl.create 256 in
  List.iter
    (fun (x, y, c, lit) ->
      Edge_tbl.add lits (x, y, c) lit;
      Edge_tbl.add lits (y, x, -c - 1) (lit lxor 1))
    originals;
  (* Adjacency: per vertex, every edge ever added leaving it and entering
     it, oldest first. An edge is live while its other end is not [dead];
     the degree counters count live edges only. *)
  let dummy = { src = 0; dst = 0; weight = 0; lit = 0 } in
  let out_e = Array.init n (fun _ -> Vec.create ~dummy) in
  let in_e = Array.init n (fun _ -> Vec.create ~dummy) in
  let out_deg = Array.make n 0 and in_deg = Array.make n 0 in
  let dead = Array.make n false in
  let add_edge e =
    Vec.push out_e.(e.src) e;
    Vec.push in_e.(e.dst) e;
    out_deg.(e.src) <- out_deg.(e.src) + 1;
    in_deg.(e.dst) <- in_deg.(e.dst) + 1
  in
  (* Tie-break order: the iteration order of a non-randomized string table
     filled with the vertices' names in installation order. Vertices only
     leave it after installation, and [Hashtbl.remove] neither reorders nor
     shrinks, so one snapshot of that order stays exact for the whole
     elimination. *)
  let order_tbl : (string, int) Hashtbl.t = Hashtbl.create ~random:false 64 in
  let installed = Array.make n false in
  let note v =
    if not installed.(v) then begin
      installed.(v) <- true;
      Hashtbl.replace order_tbl (Vec.get vs.names v) v
    end
  in
  List.iter
    (fun (x, y, c, lit) ->
      let install src dst weight lit =
        if not (useless src weight) then begin
          note src;
          note dst;
          add_edge { src; dst; weight = normalize src weight; lit }
        end
      in
      install x y c lit;
      install y x (-c - 1) (lit lxor 1))
    originals;
  let order =
    Array.of_list (List.rev (Hashtbl.fold (fun _ v acc -> v :: acc) order_tbl []))
  in
  (* Live edges of [vec], newest first, where [other] names the far end. *)
  let live vec other =
    Vec.fold (fun acc e -> if dead.(other e) then acc else e :: acc) [] vec
  in
  let eliminate v =
    dead.(v) <- true;
    let incoming = live in_e.(v) (fun e -> e.src) in
    let outgoing = live out_e.(v) (fun e -> e.dst) in
    let new_edges = ref [] in
    List.iter
      (fun e1 ->
        (* e1: u − v <= w1 *)
        List.iter
          (fun e2 ->
            (* e2: v − z <= w2 *)
            let u = e1.src and z = e2.dst in
            let w = e1.weight + e2.weight in
            if u = z then begin
              (* A cycle through v: infeasible iff its weight is negative. *)
              if w < 0 then emit [| e1.lit lxor 1; e2.lit lxor 1 |]
            end
            else if not (useless u w) then begin
              let w = normalize u w in
              let lit =
                match Edge_tbl.find_opt lits (u, z, w) with
                | Some lit -> lit
                | None ->
                  let lit = fresh () in
                  Edge_tbl.add lits (u, z, w) lit;
                  new_edges := { src = u; dst = z; weight = w; lit } :: !new_edges;
                  lit
              in
              emit [| e1.lit lxor 1; e2.lit lxor 1; lit |]
            end)
          outgoing)
      incoming;
    List.iter (fun e -> out_deg.(e.src) <- out_deg.(e.src) - 1) incoming;
    List.iter (fun e -> in_deg.(e.dst) <- in_deg.(e.dst) - 1) outgoing;
    List.iter add_edge !new_edges
  in
  (* Min-fill-style greedy order: repeatedly eliminate the live vertex with
     the smallest in*out product, the first in [order] on a tie. No heap:
     at 200 vertices all the scans together take about 0.3 ms. *)
  for _ = 1 to Array.length order do
    let best = ref (-1) and best_cost = ref max_int in
    Array.iter
      (fun v ->
        if not dead.(v) then begin
          let cost = in_deg.(v) * out_deg.(v) in
          if cost < !best_cost then begin
            best := v;
            best_cost := cost
          end
        end)
      order;
    eliminate !best
  done

let trans_constraints ?(deadline = Sepsat_util.Deadline.none) t =
  let constraints = ref [] in
  t.n_trans <- 0;
  let emit c =
    constraints := c :: !constraints;
    t.n_trans <- t.n_trans + 1;
    if t.n_trans > t.budget then raise Translation_blowup;
    (* Vertex elimination is the expensive translation phase, so it is the
       one that must poll the budget — and the deadline's stop flag, through
       which the serve engine cancels in-flight solves on shutdown. *)
    if t.n_trans land 1023 = 0 then begin
      Sepsat_util.Deadline.check deadline;
      (* Mid-translation progress on the eij.trans_constraints counter
         track: EIJ blowups are visible on the timeline before they
         exhaust the budget. *)
      if Sepsat_obs.Obs.enabled () then
        Sepsat_obs.Obs.record
          ~data:[ ("trans_constraints", string_of_int t.n_trans) ]
          Sepsat_obs.Obs.Progress "eij.progress"
    end
  in
  let vs = vertices () in
  eliminate_all vs
    ~fresh:(fun () -> pos_lit (F.fresh_var t.pctx))
    ~emit
    (List.map
       (fun ((b : Bound.t), v) ->
         let x = intern vs b.Bound.x in
         (x, intern vs b.Bound.y, b.Bound.c, pos_lit v))
       t.originals);
  F.clauses t.pctx (Array.of_list (List.rev !constraints))

exception Over_limit

let fill ~limit bounds =
  (* Literals only need to be distinct, and each one's negation distinct
     from every other literal: count them off in steps of two. *)
  let next = ref 0 in
  let fresh () =
    next := !next + 2;
    !next
  in
  let vs = vertices () in
  let seen = Edge_tbl.create 256 in
  let originals =
    List.fold_left
      (fun acc (b : Bound.t) ->
        let x = intern vs b.Bound.x in
        let key = (x, intern vs b.Bound.y, b.Bound.c) in
        if Edge_tbl.mem seen key then acc
        else begin
          Edge_tbl.add seen key ();
          let x, y, c = key in
          (x, y, c, fresh ()) :: acc
        end)
      [] bounds
  in
  let n = ref 0 in
  let emit _ =
    incr n;
    if !n > limit then raise_notrace Over_limit
  in
  match eliminate_all vs ~fresh ~emit originals with
  | () -> Some !n
  | exception Over_limit -> None

let bounds t = t.originals
