(** Hash-consed propositional formula DAGs.

    This is the [F_bool] target language of every encoding. Nodes are
    hash-consed inside an explicit manager ({!ctx}) — the usual EDA circuit
    manager discipline — so structural equality is physical equality, shared
    subformulas are represented once, and DAG sizes (the paper's formula-size
    metric) are meaningful. Smart constructors perform constant folding and
    local simplification.

    A node's children always have smaller ids than the node. A manager holds
    fewer than 2^30 nodes and 2^30 variables; constructors raise [Failure]
    beyond that.

    A {!Clauses} node is a CNF leaf: a conjunction of clauses over variable
    literals, stored as integer arrays rather than as [And]/[Or] nodes. It
    carries bulk clause sets such as EIJ's transitivity constraints through
    the formula layer at one node per set, and {!Tseitin} copies its clauses
    into the solver. *)

type ctx

type t = private { id : int; node : node }

and node =
  | True
  | False
  | Var of int  (** manager-allocated Boolean variable *)
  | Not of t
  | And of t * t
  | Or of t * t
  | Clauses of int array array
      (** a conjunction of clauses; a literal is [2*i] for variable [i] and
          [2*i+1] for its negation. Never empty, and no clause is empty. *)

val create_ctx : unit -> ctx

val tru : ctx -> t

val fls : ctx -> t

val of_bool : ctx -> bool -> t

val fresh_var : ctx -> t
(** A fresh Boolean variable node. *)

val var : ctx -> int -> t
(** The variable node of an already-allocated index.
    @raise Invalid_argument if the index was never allocated. *)

val var_index : t -> int
(** @raise Invalid_argument if the node is not a variable. *)

val nb_vars : ctx -> int
(** Number of variables allocated so far (indices are [0 .. nb_vars-1]). *)

val not_ : ctx -> t -> t

val and_ : ctx -> t -> t -> t

val or_ : ctx -> t -> t -> t

val implies : ctx -> t -> t -> t

val iff : ctx -> t -> t -> t

val xor : ctx -> t -> t -> t

val ite : ctx -> t -> t -> t -> t

val and_list : ctx -> t list -> t

val or_list : ctx -> t list -> t

val clauses : ctx -> int array array -> t
(** [clauses ctx cs] is the conjunction of the clauses [cs], each a
    disjunction of literals in the {!Clauses} packing. An empty [cs] gives
    {!tru} and a set holding an empty clause gives {!fls}; otherwise every
    call makes a new node (clause sets are not hash-consed). The arrays are
    kept, not copied: the caller must not mutate them afterwards.
    @raise Invalid_argument if a literal names an unallocated variable. *)

val eval : (int -> bool) -> t -> bool
(** Evaluates under a variable assignment. *)

val size : t -> int
(** Number of distinct DAG nodes reachable from the root, where a {!Clauses}
    node counts 1 plus its number of clauses. *)

val pp : Format.formatter -> t -> unit
