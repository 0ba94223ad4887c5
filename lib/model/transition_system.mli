(** Term-level transition systems with BMC and k-induction — a miniature of
    the UCLID flow the paper's benchmarks come from.

    A system has integer- and Boolean-sorted state variables, an initial-state
    predicate, and a *functional* next-state map: each step's variables are
    SUF terms built from the previous step's terms and fresh per-step inputs,
    so unrolling is symbolic simulation by construction (no transition
    relation, no quantifiers). Properties are SUF formulas over a step's
    state. Verification queries go through {!Sepsat.Decide} — the hybrid
    procedure by default — and counterexamples come back as concrete traces
    via {!Sepsat.Witness}. *)

module Ast = Sepsat_suf.Ast

type t

type step
(** The symbolic state at one unrolling depth. *)

val int_var : step -> string -> Ast.term
(** Current value of an integer state variable.
    @raise Invalid_argument on unknown names or sort mismatch. *)

val bool_var : step -> string -> Ast.formula

val int_input : step -> string -> Ast.term
(** A fresh integer input for this step (same name at the same step yields
    the same symbol; different steps get distinct symbols). *)

val bool_input : step -> string -> Ast.formula

val index : step -> int
(** The unrolling depth of this step (0 = initial). *)

type assignment = [ `I of Ast.term | `B of Ast.formula ]

val define :
  ctx:Ast.ctx ->
  ?name:string ->
  int_vars:string list ->
  bool_vars:string list ->
  init:(step -> Ast.formula) ->
  next:(step -> (string * assignment) list) ->
  unit ->
  t
(** [next] returns the new value of each state variable it changes (omitted
    variables hold their value).
    @raise Invalid_argument on duplicate or unsorted assignments. *)

(** {1 Verification} *)

type trace = {
  depth : int;  (** the step at which the property fails *)
  states : (int * (string * string) list) list;
      (** per step: variable name, printed value under the countermodel *)
}

type result = Proved | Counterexample of trace | Inconclusive of string

val pp_result : Format.formatter -> result -> unit

val bmc :
  ?method_:Sepsat.Decide.method_ ->
  ?deadline:Sepsat_util.Deadline.t ->
  t ->
  property:(step -> Ast.formula) ->
  depth:int ->
  result
(** Checks the property at every step up to [depth] from the initial states;
    [Proved] here means "no counterexample within the bound". *)

val induction :
  ?method_:Sepsat.Decide.method_ ->
  ?deadline:Sepsat_util.Deadline.t ->
  ?k:int ->
  t ->
  property:(step -> Ast.formula) ->
  result
(** k-induction (default [k = 1]): base — the property holds on the first
    [k] steps from the initial states; step — [k] consecutive
    property-satisfying steps from an arbitrary state imply the property at
    step [k+1]. [Proved] establishes the property at every reachable state;
    a step-case counterexample is reported as [Inconclusive] (it may be
    spurious), while a base-case counterexample is a real trace. *)
