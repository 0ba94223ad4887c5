(** Structure-parallel solving: independent components on a domain pool.

    {!solve_components} takes a {!Component.split} of the validity goal and
    decides each component on its own domain, pulled from a shared work
    queue heaviest-first. Validity (some component's goal is unsatisfiable)
    short-circuits the pool through a stop flag the sibling solvers poll;
    invalidity merges the per-component countermodels into one assignment
    of the whole formula (sound because components share no g-constants or
    Boolean constants and agree on the injected p-values).

    This module is strategy only: {!Decide} owns elimination, phase timing
    and result packaging. Deadlines passed here should be wall-clock
    ({!Deadline.after_wall}) — several domains burn CPU time concurrently. *)

module Ast = Sepsat_suf.Ast
module Sset = Sepsat_util.Sset
module Brute = Sepsat_sep.Brute
module Component = Sepsat_sep.Component
module Verdict = Sepsat_sep.Verdict
module Hybrid = Sepsat_encode.Hybrid
module Solver = Sepsat_sat.Solver
module Deadline = Sepsat_util.Deadline

val default_pool : unit -> int
(** Domains the pool uses by default:
    [max 1 (min 4 (Domain.recommended_domain_count () - 1))] — capped at the
    acceptance hardware's 4, one core left for the coordinator. *)

type components_result = {
  cr_verdict : Verdict.t;
      (** verdict for the original formula: [Valid] when some component's
          goal is unsatisfiable, [Invalid] when every component produced a
          model, [Unknown] otherwise *)
  cr_assignment : Brute.assignment option;
      (** merged countermodel on [Invalid] *)
  cr_certified : bool option;
      (** DRUP verdict of the winning component's proof, when [certify] *)
  cr_n_components : int;
  cr_pool : int;  (** domains actually spawned *)
  cr_cnf_clauses : int;  (** summed over components *)
  cr_sat_stats : Solver.stats option;
      (** the decisive component's solver, or the heaviest's *)
}

val solve_components :
  ?pool:int ->
  ?simplify:bool ->
  ?stop:bool Atomic.t ->
  ?p_value:(string * int) list ->
  config:Hybrid.config ->
  deadline:Deadline.t ->
  certify:bool ->
  Ast.ctx ->
  p_consts:Sset.t ->
  Component.split ->
  components_result
(** Decides every component of the split on a pool of [pool] domains (at
    most one per component). Each worker re-parses its component goal into a
    private AST context, encodes its negation with {!Hybrid.encode}
    [~p_value] pinned to the whole formula's table (computed here via
    {!Hybrid.p_values} unless supplied), and runs the standard CDCL check;
    [certify] routes the winning UNSAT component through full Tseitin with
    DRUP logging, exactly like the sequential pipeline. [stop] cancels the
    whole pool from outside (e.g. a portfolio race). *)
