(** The decision procedure for SUF validity — the library's front door.

    Runs the full pipeline of the paper: positive-equality-aware function
    elimination (§2.1.1), the hybrid SD/EIJ propositional encoding (§4), CNF
    conversion and CDCL search. The encoding configuration selects the pure
    SD method, the pure EIJ method, or HYBRID at any [SEP_THOLD].

    Baseline procedures (SVC-style case splitting, CVC-style lazy
    refinement) are reachable through {!method_} for apples-to-apples
    comparison on the same formulas. *)

module Ast = Sepsat_suf.Ast
module Verdict = Sepsat_sep.Verdict
module Hybrid = Sepsat_encode.Hybrid
module Solver = Sepsat_sat.Solver

type method_ =
  | Sd  (** small-domain encoding everywhere *)
  | Eij  (** per-constraint encoding everywhere *)
  | Hybrid_default
      (** HYBRID at the paper's default SEP_THOLD (700), with the fill check
          on classes above it ({!Sepsat_encode.Hybrid.default}) *)
  | Hybrid_at of int
      (** the paper's exact HYBRID rule at an explicit SEP_THOLD *)
  | Svc_baseline
  | Lazy_baseline

val pp_method : Format.formatter -> method_ -> unit
(** ["SD"], ["EIJ"], ["HYBRID(700)"] for [Hybrid_default], ["HYBRID:<n>"]
    for [Hybrid_at n], ["SVC"], ["LAZY"]. *)

val method_of_string : string -> method_ option
(** Accepts ["sd"], ["eij"], ["hybrid"], ["hybrid:<n>"], ["svc"],
    ["lazy"]. *)

type result = {
  verdict : Verdict.t;
  certified : bool option;
      (** with [~certify:true] on an eager method: [Some true]
          iff the [Valid] verdict's DRUP trace passed the independent
          {!Sepsat_sat.Drup_check} replay; [None] when certification was not
          requested or not applicable *)
  witness : Witness.t option;
      (** for an [Invalid] verdict, the falsifying assignment lifted to a
          concrete first-order interpretation of the original formula
          (integer constants plus finite function/predicate tables);
          [None] otherwise *)
  elim : Sepsat_suf.Elim.result;
      (** the function-elimination actually used; pass it (not a fresh
          re-elimination, whose fresh names would differ) to
          {!Witness.of_assignment} *)
  translate_time : float;  (** seconds spent producing the CNF / abstraction *)
  sat_time : float;  (** seconds inside the SAT/theory search *)
  total_time : float;
  phase_times : (string * float) list;
      (** finer-grained split of [total_time], in pipeline order. Eager
          methods report [elim]/[encode]/[cnf]/[sat] (so [translate_time] =
          elim + encode + cnf), then [certify] when a DRUP replay ran; SVC
          and LAZY report [elim]/[search]. On an
          [Unknown] from a translation blowup or timeout the list stops at
          the phase that gave up, which names the culprit. Same CPU clock as
          the coarse fields. *)
  cnf_clauses : int;  (** CNF clauses handed to the solver (0 for SVC) *)
  sat_stats : Solver.stats option;
  encode_stats : Hybrid.stats option;  (** eager methods only *)
}

val decide :
  ?method_:method_ ->
  ?deadline:Sepsat_util.Deadline.t ->
  ?certify:bool ->
  ?simplify:bool ->
  Ast.ctx ->
  Ast.formula ->
  result
(** Validity of a SUF formula; defaults to [Hybrid_default]. An [Invalid]
    verdict carries a falsifying assignment of the eliminated formula; use
    {!Witness.of_assignment} (with the result's [elim]) and
    {!Witness.to_interp} to obtain a first-order interpretation falsifying
    the original formula. [simplify] enables the SAT core's SatELite-style
    pre/inprocessing; it defaults to {!simplify_default} (initially on). *)

val set_simplify_default : bool -> unit
(** Sets the process-wide default for the [?simplify] argument of {!decide}
    (and everything layered on it: the bench harness, the differential
    fuzzer, the serve engine). Initially [true]. Atomic, so
    a toggle is visible to the serve engine's worker domains. *)

val simplify_default : unit -> bool

val eliminate : Ast.ctx -> Ast.formula -> Sepsat_suf.Elim.result
(** Re-export of {!Sepsat_suf.Elim.eliminate}. Note that each call draws
    fresh constant names from the context; to lift a countermodel of a
    {!decide} run, use the [elim] field of its result. *)

val cnf : method_:method_ -> Ast.ctx -> Ast.formula -> Sepsat_sat.Dimacs.cnf
(** The CNF of the negated validity query under an eager method (the input
    is valid iff it is unsatisfiable) after Polarity Tseitin: what
    [sufdec cnf] prints.
    @raise Invalid_argument for a method that is not eager.
    @raise Sepsat_encode.Hybrid.Translation_blowup as {!Sepsat_encode.Hybrid.encode}. *)

val valid : ?method_:method_ -> Ast.ctx -> Ast.formula -> bool
(** Convenience wrapper. @raise Failure on an [Unknown] verdict. *)
