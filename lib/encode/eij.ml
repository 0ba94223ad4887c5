module F = Sepsat_prop.Formula
module Bound = Sepsat_sep.Bound
module Ground = Sepsat_sep.Ground

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

(* An edge (u, v, w, lit) asserts u − v <= w whenever lit holds. Each
   predicate variable contributes the edge of its bound and the reverse
   strict edge of its negation. [lit] is a formula-level literal in the
   [F.Clauses] packing: [2*i] for variable [i], [2*i+1] for its negation. *)

type edge = { src : string; dst : string; weight : int; lit : int }
(* src − dst <= weight *)

let pos_lit v = 2 * F.var_index v

let trans_constraints ?(deadline = Sepsat_util.Deadline.none) t =
  let pctx = t.pctx in
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
  let comp_of, s_plus, s_minus =
    let parent : (string, string) Hashtbl.t = Hashtbl.create 64 in
    let rec find v =
      match Hashtbl.find_opt parent v with
      | None | Some "" -> v
      | Some p ->
        let r = find p in
        Hashtbl.replace parent v r;
        r
    in
    let union u v =
      let ru = find u and rv = find v in
      if ru <> rv then Hashtbl.replace parent ru rv
    in
    List.iter
      (fun ((b : Bound.t), _) -> union b.Bound.x b.Bound.y)
      t.originals;
    let s_plus : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let s_minus : (string, int) Hashtbl.t = Hashtbl.create 16 in
    let bump tbl rep d =
      let cur = try Hashtbl.find tbl rep with Not_found -> 0 in
      Hashtbl.replace tbl rep (cur + d)
    in
    List.iter
      (fun ((b : Bound.t), _) ->
        let rep = find b.Bound.x in
        (* both orientations of the bound: weights c and -c-1 *)
        List.iter
          (fun w ->
            bump s_plus rep (max 0 w);
            bump s_minus rep (max 0 (-w)))
          [ b.Bound.c; -b.Bound.c - 1 ])
      t.originals;
    let get tbl rep = try Hashtbl.find tbl rep with Not_found -> 0 in
    (find, get s_plus, get s_minus)
  in
  let floor_of v = -s_plus (comp_of v) - 1 in
  let normalize_weight v w =
    let f = floor_of v in
    if w < f then f else w
  in
  let useless v w = w >= s_minus (comp_of v) in
  (* Adjacency: per live vertex, edges leaving it (src = vertex) and entering
     it (dst = vertex). *)
  let out_edges : (string, edge list ref) Hashtbl.t = Hashtbl.create 64 in
  let in_edges : (string, edge list ref) Hashtbl.t = Hashtbl.create 64 in
  let vertices = Hashtbl.create 64 in
  let adj tbl v =
    match Hashtbl.find_opt tbl v with
    | Some r -> r
    | None ->
      let r = ref [] in
      Hashtbl.add tbl v r;
      r
  in
  let add_edge e =
    Hashtbl.replace vertices e.src ();
    Hashtbl.replace vertices e.dst ();
    adj out_edges e.src := e :: !(adj out_edges e.src);
    adj in_edges e.dst := e :: !(adj in_edges e.dst)
  in
  List.iter
    (fun ((b : Bound.t), v) ->
      let install src dst weight lit =
        if not (useless src weight) then
          add_edge { src; dst; weight = normalize_weight src weight; lit }
      in
      let lit = pos_lit v in
      install b.Bound.x b.Bound.y b.Bound.c lit;
      install b.Bound.y b.Bound.x (-b.Bound.c - 1) (lit lxor 1))
    t.originals;
  (* Derived-edge variables are deduplicated on (src, dst, weight); a
     canonical bound that already has a predicate variable is reused (its
     truth is then further constrained, which is sound and sharpens the
     encoding). *)
  let derived : (string * string * int, int) Hashtbl.t = Hashtbl.create 256 in
  let constraints = ref [] in
  t.n_trans <- 0;
  let emit c =
    constraints := c :: !constraints;
    t.n_trans <- t.n_trans + 1;
    if t.n_trans > t.budget then raise Translation_blowup;
    (* Vertex elimination is the expensive translation phase, so it is the
       one that must poll the budget — and, in a portfolio race, the shared
       stop flag a winning competitor raises. *)
    if t.n_trans land 1023 = 0 then begin
      Sepsat_util.Deadline.check deadline;
      (* Mid-translation progress on the counter track: EIJ blowups are
         visible on the timeline before they exhaust the budget. *)
      Sepsat_obs.Obs.sample "eij.trans_constraints" (float_of_int t.n_trans)
    end
  in
  let lit_for_derived src dst weight =
    match Hashtbl.find_opt derived (src, dst, weight) with
    | Some lit -> (lit, false)
    | None ->
      let view = Bound.view ~x:src ~y:dst ~c:weight in
      let lit, needs_edge =
        match Bound_map.find_opt view.Bound.bound t.evars with
        | Some v ->
          (* An original predicate variable already carries this bound (and
             its graph edges, installed up front). *)
          let l = pos_lit v in
          ((if view.Bound.negated then l lxor 1 else l), false)
        | None -> (pos_lit (F.fresh_var pctx), true)
      in
      Hashtbl.add derived (src, dst, weight) lit;
      (lit, needs_edge)
  in
  let eliminate v =
    let incoming = !(adj in_edges v) and outgoing = !(adj out_edges v) in
    Hashtbl.remove in_edges v;
    Hashtbl.remove out_edges v;
    Hashtbl.remove vertices v;
    let new_edges = ref [] in
    List.iter
      (fun e1 ->
        (* e1: u − v <= w1 *)
        if not (String.equal e1.src v) then
          List.iter
            (fun e2 ->
              (* e2: v − z <= w2 *)
              if not (String.equal e2.dst v) then begin
                let u = e1.src and z = e2.dst in
                let w = e1.weight + e2.weight in
                if String.equal u z then begin
                  (* A cycle through v: infeasible iff its weight is
                     negative. *)
                  if w < 0 then emit [| e1.lit lxor 1; e2.lit lxor 1 |]
                end
                else if not (useless u w) then begin
                  let w = normalize_weight u w in
                  let lit, fresh = lit_for_derived u z w in
                  emit [| e1.lit lxor 1; e2.lit lxor 1; lit |];
                  if fresh then
                    new_edges := { src = u; dst = z; weight = w; lit } :: !new_edges
                end
              end)
            outgoing)
      incoming;
    (* Drop edges incident to v from the neighbours' lists, then install the
       derived edges. *)
    let prune tbl key =
      match Hashtbl.find_opt tbl key with
      | None -> ()
      | Some r ->
        r :=
          List.filter
            (fun e -> not (String.equal e.src v || String.equal e.dst v))
            !r
    in
    List.iter (fun e -> prune out_edges e.src) incoming;
    List.iter (fun e -> prune in_edges e.dst) outgoing;
    List.iter add_edge !new_edges
  in
  (* Min-fill-style greedy order: repeatedly eliminate the vertex with the
     smallest in*out product. *)
  let rec loop () =
    if Hashtbl.length vertices > 0 then begin
      let best = ref None in
      Hashtbl.iter
        (fun v () ->
          let cost =
            List.length !(adj in_edges v) * List.length !(adj out_edges v)
          in
          match !best with
          | Some (_, c) when c <= cost -> ()
          | _ -> best := Some (v, cost))
        vertices;
      match !best with
      | None -> ()
      | Some (v, _) ->
        eliminate v;
        loop ()
    end
  in
  loop ();
  F.clauses pctx (Array.of_list (List.rev !constraints))

let bounds t = t.originals
