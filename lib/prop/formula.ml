type t = { id : int; node : node }

and node =
  | True
  | False
  | Var of int
  | Not of t
  | And of t * t
  | Or of t * t
  | Clauses of int array array

(* The hash-cons table is open addressing (linear probing) over two flat
   arrays. A key packs into one immediate int: a 3-bit constructor tag in the
   low bits and up to two 30-bit operands (child ids, or a variable index)
   above it. Tags run 0..6, so the all-ones [empty] slot marker never
   collides with a real key. A [Clauses] node is never shared: its key's
   operand is its own id, which no other key carries. *)

let tag_true = 0

let tag_false = 1

let tag_var = 2

let tag_not = 3

let tag_and = 4

let tag_or = 5

let tag_clauses = 6

let operand_bits = 30

(* Exclusive bound on node ids and variable indices, so both operands fit. *)
let max_operand = 1 lsl operand_bits

let empty = -1

let key tag a b = (a lsl (operand_bits + 3)) lor (b lsl 3) lor tag

type ctx = {
  mutable next_id : int;
  mutable next_var : int;
  mutable keys : int array;  (* [empty] or a packed key *)
  mutable nodes : t array;  (* the node stored under [keys] at the same slot *)
  mutable bits : int;  (* capacity is [1 lsl bits] *)
}

let dummy = { id = -1; node = True }

let initial_bits = 12

let create_ctx () =
  {
    next_id = 0;
    next_var = 0;
    keys = Array.make (1 lsl initial_bits) empty;
    nodes = Array.make (1 lsl initial_bits) dummy;
    bits = initial_bits;
  }

(* Fibonacci hashing: the top [bits] bits of the key times an odd 62-bit
   constant. *)
let slot_of ctx k =
  let mask = (1 lsl ctx.bits) - 1 in
  let i = ref ((k * 0x2545F4914F6CDD1D) lsr (63 - ctx.bits)) in
  while ctx.keys.(!i) <> empty && ctx.keys.(!i) <> k do
    i := (!i + 1) land mask
  done;
  !i

let grow ctx =
  let old_keys = ctx.keys and old_nodes = ctx.nodes in
  ctx.bits <- ctx.bits + 1;
  ctx.keys <- Array.make (1 lsl ctx.bits) empty;
  ctx.nodes <- Array.make (1 lsl ctx.bits) dummy;
  Array.iteri
    (fun j k ->
      if k <> empty then begin
        let i = slot_of ctx k in
        ctx.keys.(i) <- k;
        ctx.nodes.(i) <- old_nodes.(j)
      end)
    old_keys

(* Stores a new node under key [k] at the free slot [i] found by [slot_of].
   The table stays at most half full, so probe sequences stay short. *)
let add ctx i k node =
  let id = ctx.next_id in
  if id >= max_operand then failwith "Formula: node id space exhausted";
  let f = { id; node } in
  ctx.next_id <- id + 1;
  let i =
    if 2 * ctx.next_id <= 1 lsl ctx.bits then i
    else begin
      grow ctx;
      slot_of ctx k
    end
  in
  ctx.keys.(i) <- k;
  ctx.nodes.(i) <- f;
  f

(* Leaves are few; the [Not], [And] and [Or] constructors below inline this
   lookup so that a hit allocates nothing. *)
let leaf ctx tag a node =
  let k = key tag a 0 in
  let i = slot_of ctx k in
  if ctx.keys.(i) = k then ctx.nodes.(i) else add ctx i k node

let tru ctx = leaf ctx tag_true 0 True

let fls ctx = leaf ctx tag_false 0 False

let of_bool ctx b = if b then tru ctx else fls ctx

let var ctx i =
  if i < 0 || i >= ctx.next_var then invalid_arg "Formula.var: unallocated";
  leaf ctx tag_var i (Var i)

let fresh_var ctx =
  let i = ctx.next_var in
  if i >= max_operand then failwith "Formula: variable index space exhausted";
  ctx.next_var <- i + 1;
  leaf ctx tag_var i (Var i)

let var_index f =
  match f.node with
  | Var i -> i
  | True | False | Not _ | And _ | Or _ | Clauses _ ->
    invalid_arg "Formula.var_index: not a variable"

let nb_vars ctx = ctx.next_var

let not_ ctx f =
  match f.node with
  | True -> fls ctx
  | False -> tru ctx
  | Not g -> g
  | Var _ | And _ | Or _ | Clauses _ ->
    let k = key tag_not f.id 0 in
    let i = slot_of ctx k in
    if ctx.keys.(i) = k then ctx.nodes.(i) else add ctx i k (Not f)

let and_ ctx a b =
  match (a.node, b.node) with
  | False, _ | _, False -> fls ctx
  | True, _ -> b
  | _, True -> a
  | _ ->
    if a == b then a
    else if (match a.node with Not a' -> a' == b | _ -> false) then fls ctx
    else if (match b.node with Not b' -> b' == a | _ -> false) then fls ctx
    else
      let x, y = if a.id <= b.id then (a, b) else (b, a) in
      let k = key tag_and x.id y.id in
      let i = slot_of ctx k in
      if ctx.keys.(i) = k then ctx.nodes.(i) else add ctx i k (And (x, y))

let or_ ctx a b =
  match (a.node, b.node) with
  | True, _ | _, True -> tru ctx
  | False, _ -> b
  | _, False -> a
  | _ ->
    if a == b then a
    else if (match a.node with Not a' -> a' == b | _ -> false) then tru ctx
    else if (match b.node with Not b' -> b' == a | _ -> false) then tru ctx
    else
      let x, y = if a.id <= b.id then (a, b) else (b, a) in
      let k = key tag_or x.id y.id in
      let i = slot_of ctx k in
      if ctx.keys.(i) = k then ctx.nodes.(i) else add ctx i k (Or (x, y))

let implies ctx a b = or_ ctx (not_ ctx a) b

let iff ctx a b = and_ ctx (implies ctx a b) (implies ctx b a)

let xor ctx a b = not_ ctx (iff ctx a b)

let ite ctx c a b = and_ ctx (implies ctx c a) (implies ctx (not_ ctx c) b)

let clauses ctx cs =
  if Array.length cs = 0 then tru ctx
  else if Array.exists (fun c -> Array.length c = 0) cs then fls ctx
  else begin
    Array.iter
      (Array.iter (fun l ->
           if l < 0 || l lsr 1 >= ctx.next_var then
             invalid_arg "Formula.clauses: unallocated variable"))
      cs;
    let k = key tag_clauses ctx.next_id 0 in
    add ctx (slot_of ctx k) k (Clauses cs)
  end

let and_list ctx fs = List.fold_left (and_ ctx) (tru ctx) fs

let or_list ctx fs = List.fold_left (or_ ctx) (fls ctx) fs

let eval_lit assign l = assign (l lsr 1) <> (l land 1 = 1)

let eval_clauses assign cs = Array.for_all (Array.exists (eval_lit assign)) cs

let eval assign root =
  match root.node with
  | True -> true
  | False -> false
  | Var i -> assign i
  | Not { node = Var i; _ } -> not (assign i)
  | Clauses cs -> eval_clauses assign cs
  | Not _ | And _ | Or _ ->
    let memo = Hashtbl.create 64 in
    let rec go f =
      match Hashtbl.find_opt memo f.id with
      | Some b -> b
      | None ->
        let b =
          match f.node with
          | True -> true
          | False -> false
          | Var i -> assign i
          | Not g -> not (go g)
          | And (a, b) -> go a && go b
          | Or (a, b) -> go a || go b
          | Clauses cs -> eval_clauses assign cs
        in
        Hashtbl.add memo f.id b;
        b
    in
    go root

(* Children are hash-consed before their parents, so every node below
   [root] has a smaller id and one byte per id up to [root.id] marks them. *)
let size root =
  let seen = Bytes.make (root.id + 1) '\000' in
  let n = ref 0 in
  let rec go f =
    if Bytes.get seen f.id = '\000' then begin
      Bytes.set seen f.id '\001';
      incr n;
      match f.node with
      | True | False | Var _ -> ()
      | Clauses cs -> n := !n + Array.length cs
      | Not g -> go g
      | And (a, b) | Or (a, b) ->
        go a;
        go b
    end
  in
  go root;
  !n

let pp ppf root =
  let rec go ppf f =
    match f.node with
    | True -> Format.pp_print_string ppf "true"
    | False -> Format.pp_print_string ppf "false"
    | Var i -> Format.fprintf ppf "b%d" i
    | Not g -> Format.fprintf ppf "(not %a)" go g
    | And (a, b) -> Format.fprintf ppf "(and %a %a)" go a go b
    | Or (a, b) -> Format.fprintf ppf "(or %a %a)" go a go b
    | Clauses cs ->
      Format.pp_print_string ppf "(clauses";
      Array.iter
        (fun c ->
          Format.pp_print_string ppf " (or";
          Array.iter
            (fun l ->
              if l land 1 = 0 then Format.fprintf ppf " b%d" (l lsr 1)
              else Format.fprintf ppf " (not b%d)" (l lsr 1))
            c;
          Format.pp_print_string ppf ")")
        cs;
      Format.pp_print_string ppf ")"
  in
  go ppf root
