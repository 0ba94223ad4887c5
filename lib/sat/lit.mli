(** Propositional literals.

    A literal is a variable (a dense non-negative integer) together with a
    sign. The representation is the MiniSat packing [2*var + (negated ? 1 : 0)]
    so literals index arrays directly. *)

type t = private int [@@immediate]

val make : int -> bool -> t
(** [make v sign] is the literal over variable [v]; [sign = true] gives the
    positive literal [v], [sign = false] gives [¬v]. Requires [v >= 0]. *)

val pos : int -> t
(** Positive literal of a variable. *)

val neg_of : int -> t
(** Negative literal of a variable. *)

val var : t -> int

val sign : t -> bool
(** [true] iff the literal is positive. *)

val neg : t -> t
(** Complement. *)

val to_int : t -> int
(** The packed representation, suitable as an array index in [0, 2n). *)

val of_int : int -> t
(** Inverse of {!to_int}. *)

val array_as_ints : t array -> int array
(** The same array viewed as packed ints, without a copy: a write through
    either view shows in the other. *)

val to_dimacs : t -> int
(** Signed DIMACS form: variable index + 1, negative if the literal is. *)

val of_dimacs : int -> t
(** Inverse of {!to_dimacs}. @raise Invalid_argument on 0. *)

val compare : t -> t -> int

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
