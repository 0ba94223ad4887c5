(** CNF conversion into a live SAT solver.

    Each distinct formula DAG node is encoded once (sharing-preserving), so
    the clause count is linear in the DAG size. Negations reuse the
    complemented literal and cost no variables or clauses.

    Two conversions are available. {!Polarity} (the default) is the
    Plaisted-Greenbaum translation: a gate's definition clauses are emitted
    only in the direction(s) its occurrence polarity demands, and maximal
    same-connective And/Or spines are flattened into n-ary definitions
    (width-capped), cutting both clause and variable counts versus the
    textbook translation. Models still project correctly onto the input
    variables of an asserted root. {!Full} is the classical both-direction
    binary Tseitin conversion, kept for paths that need the gate variables to
    be fully defined — model reconstruction over arbitrary subformulas and
    the DRUP certification pipeline.

    A {!Formula.Clauses} node costs no formula-level gates. Asserted as a root
    (or as a conjunct of a split root) its clauses go into the solver
    verbatim. Elsewhere it gets a gate literal [l]: the positive direction is
    one clause [¬l ∨ Cᵢ] per clause, and the negative direction (which
    {!Full} always emits) gives each clause an indicator [dᵢ] with
    [Cᵢ ⇒ dᵢ] as binary clauses, then [d₁ ∧ … ∧ dₙ ⇒ l] through group gates
    of at most 64 antecedents, so no clause is wider than 65 literals. *)

type t

type mode =
  | Full  (** both-direction binary Tseitin, the paper's translation *)
  | Polarity  (** polarity-aware Plaisted-Greenbaum with n-ary flattening *)

val create : ?mode:mode -> Sepsat_sat.Solver.t -> t
(** [mode] defaults to {!Polarity}. *)

val find_var : t -> int -> Sepsat_sat.Lit.t option
(** Solver literal standing for a formula variable index, so the caller can
    decode models; [None] means the formula variable never reached the
    solver (its value is unconstrained). *)

val encode : t -> Formula.t -> Sepsat_sat.Lit.t
(** Returns the literal equisatisfiably representing the formula; definition
    clauses are added to the solver as a side effect. In {!Polarity} mode the
    returned literal is fully defined (both directions), since the caller may
    use it under either sign. *)

val assert_root : t -> Formula.t -> unit
(** Encodes the formula and asserts it. A {!Formula.Clauses} root is added
    clause by clause in both modes. In {!Polarity} mode the assertion is
    clausal: conjunctive roots split into several roots and disjunctive roots
    become a single clause, so no top-level gate variables are introduced. *)

val clauses_added : t -> int
(** Total CNF clauses this encoder has pushed into the solver (the "# of CNF
    clauses" column of the paper's Fig. 2). *)
