(** CDCL Boolean satisfiability solver.

    A from-scratch conflict-driven clause-learning solver in the Chaff/MiniSat
    family, standing in for the zChaff 2001.2.17 engine used by the paper:
    two-watched-literal propagation, VSIDS branching with phase saving,
    first-UIP clause learning with basic self-subsumption minimization,
    activity-driven learnt-clause deletion and Luby restarts.

    The solver is incremental in one sense only: clauses may be added between
    [solve] calls (the solver backtracks to the root level first), and
    learned clauses, variable activities and saved phases persist across
    calls. The lazy CVC-style refinement loop adds its theory lemmas this
    way. *)

type t

type result =
  | Sat
  | Unsat
  | Unknown  (** conflict budget or deadline exhausted, or cancelled *)

type stats = {
  conflicts : int;  (** conflict clauses learned, the paper's Fig. 2 metric *)
  decisions : int;
  propagations : int;
  restarts : int;
  clauses : int;  (** problem clauses currently attached *)
  learnts : int;  (** learnt clauses currently attached *)
  max_vars : int;
  eliminated : int;
      (** clauses dropped at [add_clause] time (tautological or already
          satisfied at the root level) *)
  simp_rounds : int;  (** simplification rounds run (pre- and inprocessing) *)
  simp_subsumed : int;  (** clauses removed by backward subsumption *)
  simp_strengthened : int;  (** clauses shrunk by self-subsumption *)
  simp_vars_eliminated : int;  (** variables removed by bounded elimination *)
  simp_blocked : int;  (** clauses removed by blocked-clause elimination *)
  simp_restored : int;
      (** extension-stack clauses restored because a later increment touched
          their variables *)
}

val create : unit -> t

val set_simplify : t -> bool -> unit
(** Enables SatELite-style pre/inprocessing (subsumption, self-subsumption,
    bounded variable elimination, blocked-clause elimination) for subsequent
    [solve] calls: a preprocessing pass runs when the clauses added since the
    last pass are at least a tenth of the database, and further rounds are
    scheduled between restarts. Off by default. Sound with
    proofs (the DRUP trace stays checkable) and with clause increments: a
    clause added later that mentions an eliminated variable, or one whose
    clauses are parked for model reconstruction, first restores those parked
    clauses and freezes the variables involved. *)

val simplify : t -> unit
(** Runs a full simplification pass immediately (regardless of the
    [set_simplify] setting). Mainly for tests and tooling; [solve] schedules
    simplification itself when enabled. *)

val is_eliminated : t -> int -> bool
(** Whether the simplifier currently has this variable eliminated. Eliminated
    variables still receive model values (via the reconstruction stack) but
    are never decided on. *)

val start_proof : t -> Proof.t
(** Enables DRUP proof logging (from a fresh solver, before any clause is
    added) and returns the trace being built; verify it afterwards with
    {!Drup_check}. Logging costs memory proportional to the learned-clause
    traffic. *)

val new_var : t -> int
(** Allocates the next variable; returns its index (dense, from 0). *)

val nvars : t -> int

val add_clause : t -> Lit.t list -> unit
(** Adds a clause. Literals are sorted and deduplicated; tautologies and
    clauses containing a root-level-true literal are dropped (counted in
    [stats.eliminated]); root-level-false literals are removed; an empty or
    root-contradicting clause makes the instance unsatisfiable. May be called
    between [solve] calls. *)

val add_clause_array : t -> Lit.t array -> unit
(** {!add_clause} over an array, which it sorts in place. *)

val solve : ?deadline:Sepsat_util.Deadline.t -> t -> result
(** Decides satisfiability of the clause database. The solver stays usable
    after [Sat] and [Unknown]: more clauses may be added and [solve] called
    again. [Unsat] is final. The [deadline] (and its
    {!Sepsat_util.Deadline.with_stop} flag, the one cancellation channel) is
    polled every 1024 conflicts and after every restart; once it fires the
    call returns [Unknown]. *)

val value : t -> Lit.t -> bool
(** Model value of a literal after [solve] returned [Sat].
    @raise Invalid_argument if no model is available. *)

val model : t -> bool array
(** Model as an array indexed by variable, after [Sat].
    @raise Invalid_argument if no model is available. *)

val export_cnf : t -> int * Lit.t list list
(** [(nvars, clauses)]: the active problem clauses plus the root-level unit
    facts — equisatisfiable with everything added so far. Learnt clauses are
    not included. Feed to {!Dimacs.print} via its [cnf] record for
    interchange with external solvers. *)

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit
