(** The hybrid encoding (paper §4) and its SD/EIJ degenerations.

    Encodes an application-free SUF formula (the output of
    {!Sepsat_suf.Elim}) into a propositional formula
    [F_bool = F_trans ⟹ F_bvar]:

    + symbolic constants are partitioned into independent equivalence classes;
    + ground terms are normalized;
    + per class, the method is SD when [SepCnt(V_i) > threshold], EIJ
      otherwise — so [threshold = -1] is the pure SD procedure and
      [threshold = max_int] the pure EIJ procedure. Under [fill_check]
      ({!default}), a class above the threshold still goes to EIJ when a
      capped count of EIJ's transitivity constraints shows EIJ is no more
      than 1.5 times SD's estimated size (see {!decision});
    + p-constants fold to fixed diverse values.

    The result carries a decoder from propositional models back to integer /
    Boolean countermodels of the separation-logic formula. *)

module F = Sepsat_prop.Formula
module Ast = Sepsat_suf.Ast
module Sset = Sepsat_util.Sset
module Brute = Sepsat_sep.Brute

exception Translation_blowup
(** Re-raised from {!Eij}: the transitivity-constraint budget was exhausted
    (the paper's translation-stage timeout). *)

type config = {
  threshold : int;  (** the paper's [SEP_THOLD]; default 700 (§4.1) *)
  fill_check : bool;
      (** check every class above [threshold] before sending it to SD;
          [false] is the paper's exact rule *)
}
(** Every configuration translates EIJ classes under the same budget of
    500,000 transitivity constraints. *)

val default_threshold : int
(** 700, the value the paper's clustering procedure selects. *)

val default : config
(** The checked rule at the default threshold: classes at or below 700 get
    the paper's choice (EIJ), classes above it go to EIJ when their fill
    check passes and to SD otherwise. *)

val sd_only : config
(** Every class through SD — the paper's standalone SD method. *)

val eij_only : config
(** Every class through EIJ — the paper's standalone EIJ method. *)

val hybrid : ?threshold:int -> unit -> config
(** The paper's exact rule at [threshold] (default 700): SD iff
    [SepCnt > threshold]. *)

type method_choice = Use_sd | Use_eij

type fill =
  | Unchecked  (** the class got the threshold rule's choice unchecked *)
  | Fill of int
      (** the replayed elimination finished under the cap with this many
          transitivity constraints *)
  | Over_cap  (** the replay passed the cap, or the cap was not positive *)

type decision = {
  class_id : int;
  sep_cnt : int;  (** [SepCnt]: EIJ's disjuncts, the paper's measure *)
  sd_est : int;
      (** [bits(range) · leaf_cnt], with [bits r = ⌈log₂ r⌉]: SD's
          circuits grow linearly in the leaves of each ITE tree *)
  fill : fill;
  choice : method_choice;
}
(** One class's encoding and why. A checked class goes to EIJ iff
    [sep_cnt + fill <= 1.5 · sd_est]; the replay ({!Eij.fill}) stops at
    [cap = 1.5 · sd_est − sep_cnt] and is skipped when [cap <= 0]. *)

val decisions :
  ?config:config ->
  Ast.ctx ->
  p_consts:Sset.t ->
  Ast.formula ->
  Sepsat_sep.Classes.t * decision array
(** The classes of an application-free formula and the per-class choice
    {!encode} makes under [config] (default {!default}), indexed by class
    id, without encoding anything. *)

type stats = {
  n_classes : int;
  sd_classes : int;
  eij_classes : int;
  total_sep_cnt : int;  (** pre-encoding separation-predicate estimate *)
  eij_predicates : int;  (** predicate variables actually allocated *)
  trans_constraints : int;
  bool_size : int;  (** DAG size of [F_bool] *)
}

type encoded = {
  prop_ctx : F.ctx;
  f_bool : F.t;  (** valid input iff [not f_bool] is unsatisfiable *)
  stats : stats;
  decode : (int -> bool) -> Brute.assignment;
      (** countermodel of the separation-logic formula from a propositional
          model of [not f_bool] *)
}

val encode :
  ?config:config ->
  ?deadline:Sepsat_util.Deadline.t ->
  Ast.ctx ->
  p_consts:Sset.t ->
  Ast.formula ->
  encoded
(** [deadline] is polled during transitivity-constraint generation, the
    expensive translation phase.
    @raise Translation_blowup when EIJ translation exceeds its budget.
    @raise Sepsat_util.Deadline.Timeout when the deadline fires during
    translation.
    @raise Invalid_argument if the formula contains applications. *)
