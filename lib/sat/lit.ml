type t = int [@@ocaml.immediate]

let[@inline] make v sign =
  assert (v >= 0);
  (2 * v) + if sign then 0 else 1

let[@inline] pos v = make v true

let[@inline] neg_of v = make v false

let[@inline] var l = l lsr 1

let[@inline] sign l = l land 1 = 0

let[@inline] neg l = l lxor 1

let[@inline] to_int l = l

let[@inline] of_int i =
  assert (i >= 0);
  i

let array_as_ints (a : t array) : int array = a

let to_dimacs l = if sign l then var l + 1 else -(var l + 1)

let of_dimacs i =
  if i = 0 then invalid_arg "Lit.of_dimacs: 0";
  if i > 0 then pos (i - 1) else neg_of (-i - 1)

let compare = Int.compare

let equal = Int.equal

let pp ppf l = Format.fprintf ppf "%s%d" (if sign l then "" else "-") (var l + 1)
