(** The repository's one JSON codec: values, a strict parser and a
    round-trip-exact printer.

    Every JSON document the project reads or writes goes through this
    module: the serving protocol, flight dumps, JSON-lines logs, Chrome
    traces, metrics snapshots, bench reports and baselines. Writers build a
    {!t} and print it with {!to_string}, so there is one string escaper and
    one number policy. Objects, arrays, strings with the standard escapes
    ([\uXXXX] included, encoded to UTF-8), numbers, booleans, null. Not
    streaming: a document is parsed as one value. Object member order is
    preserved; on lookup, duplicates keep the first occurrence. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

val max_depth : int
(** Arrays and objects nested deeper than this (128) are refused by
    {!parse}. The deepest document the project writes nests about six
    levels, so the bound only ever stops hostile input from exhausting the
    stack. *)

val parse : string -> (t, string) result
(** Whole-string parse; trailing garbage after the value is an error, and
    so is nesting deeper than {!max_depth}. The error message carries a
    byte offset. *)

val to_string : t -> string
(** Compact single-line rendering (no newlines, so safe as one protocol or
    log line). Strings escape the double quote, the backslash and every
    control byte; other bytes, UTF-8 included, pass through. Integral
    numbers below 1e15 print without a decimal point; other finite numbers
    print with 12 significant digits when that parses back to the same
    float and with 17 otherwise, so [parse (to_string v)] gives back every
    finite number exactly. Non-finite numbers print as [null] (JSON has no
    lexeme for them). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** Object member lookup; [None] on missing member or non-object. *)

val to_str : t -> string option

val to_num : t -> float option

val to_int : t -> int option
(** Truncates; [None] on non-numbers. *)

val to_bool : t -> bool option

val mem_str : string -> t -> string option
(** [mem_str k j] = [member k j >>= to_str]; same for the others below. *)

val mem_num : string -> t -> float option

val mem_int : string -> t -> int option

val mem_bool : string -> t -> bool option
