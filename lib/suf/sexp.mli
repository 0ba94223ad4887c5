(** Minimal s-expression reader shared by the concrete-syntax front ends
    ({!Parse} and {!Smtlib}). *)

type t = Atom of string | List of t list

exception Error of string

val max_depth : int
(** The deepest parenthesis nesting the reader accepts (10,000). The
    deepest benchmark-suite formula nests fewer than 150 levels. *)

val parse_all : string -> t list
(** All top-level s-expressions of the text. Comments run from [;] to end of
    line. @raise Error on unbalanced parentheses, or on nesting deeper than
    {!max_depth}. *)

val parse_one : string -> t
(** Exactly one top-level s-expression. @raise Error otherwise. *)
