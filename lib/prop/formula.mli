(** Hash-consed propositional formula DAGs.

    This is the [F_bool] target language of every encoding. Nodes are
    hash-consed inside an explicit manager ({!ctx}) — the usual EDA circuit
    manager discipline — so structural equality is physical equality, shared
    subformulas are represented once, and DAG sizes (the paper's formula-size
    metric) are meaningful. Smart constructors perform constant folding and
    local simplification.

    A node's children always have smaller ids than the node. A manager holds
    fewer than 2^30 nodes and 2^30 variables; constructors raise [Failure]
    beyond that. *)

type ctx

type t = private { id : int; node : node }

and node =
  | True
  | False
  | Var of int  (** manager-allocated Boolean variable *)
  | Not of t
  | And of t * t
  | Or of t * t

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

val eval : (int -> bool) -> t -> bool
(** Evaluates under a variable assignment. *)

val size : t -> int
(** Number of distinct DAG nodes reachable from the root. *)

val pp : Format.formatter -> t -> unit
