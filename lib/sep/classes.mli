(** Equivalence classes of symbolic constants (paper §4 steps 1, 3, 4).

    Two g-constants share a class when they are (transitively) compared by
    some atom or merged through the branches of an ITE term. Classes can be
    encoded independently of one another; per class the structure records the
    small-domain size [range(V_i)] and the separation-predicate upper bound
    [SepCnt(V_i)] that drives the hybrid SD/EIJ choice. *)

module Ast = Sepsat_suf.Ast
module Sset = Sepsat_util.Sset

type class_info = {
  id : int;
  members : string list;  (** g-constants, sorted *)
  range : int;
      (** small-domain size. The paper states [Σ (u(v) − l(v) + 1)], which is
          insufficient as written (two constants with offsets {+1} and {0}
          get 2 values, yet falsifying [¬(x+1 < y)] needs a spread of 2); we
          use the provably sufficient gap-compression bound
          [(n − 1)(W + 1) + 1] with [W = max u − min l] over the class, which
          coincides on equality-only classes *)
  shift : int;
      (** domain lower bound [L = max(0, max_v −l(v))], so member values live
          in [\[L, L + range − 1\]] and every ground term stays non-negative *)
  umax : int;  (** largest positive offset over members *)
  sep_cnt : int;
      (** paper's [SepCnt(V_i)] upper bound: over the class's atoms, the
          product of the two sides' distinct ground-leaf counts *)
  leaf_cnt : int;
      (** over the class's atoms, the sum of the two sides' distinct
          ground-leaf counts: the size SD's circuits grow with *)
  p_neighbors : Sset.t;
      (** p-constants appearing in this class's atoms; the SD encoder must
          make room for their fixed diverse values *)
}

type t

val build : p_consts:Sset.t -> Ast.formula -> t
(** The formula must be application-free and normalized
    ({!Normal.normalize}). *)

val classes : t -> class_info array

val class_atoms : t -> int -> Ast.formula list
(** The [Eq]/[Lt] atoms of a class, by class id, in {!Sepsat_suf.Ast.atoms}
    order. *)

val atom_class : t -> Ast.formula -> class_info option
(** Class owning an [Eq]/[Lt] atom of the formula; [None] when the atom
    compares only p-constants. @raise Not_found on foreign atoms. *)

val const_class : t -> string -> class_info option
(** Class of a constant; [None] for p-constants.
    @raise Not_found for unknown constants. *)

val is_p : t -> string -> bool

val offsets : t -> string -> int * int
(** [(l(v), u(v))]: least and greatest offset the constant occurs with;
    [(0, 0)] for constants with no recorded occurrence. *)

val total_sep_cnt : t -> int
(** Formula-level separation-predicate estimate (x-axis of paper Fig. 3). *)

val num_atoms : t -> int
