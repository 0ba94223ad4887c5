type t = Atom of string | List of t list

exception Error of string

let error fmt = Format.kasprintf (fun s -> raise (Error s)) fmt

let max_depth = 10_000

(* The depth count makes hostile nesting fail at its first paren past the
   bound, before the token list or the recursive reader grow with it. *)
let lex text =
  let n = String.length text in
  let tokens = ref [] in
  let i = ref 0 in
  let depth = ref 0 in
  let is_atom_char c =
    match c with
    | '(' | ')' | ';' -> false
    | c -> not (c = ' ' || c = '\t' || c = '\n' || c = '\r')
  in
  while !i < n do
    let c = text.[!i] in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = ';' then begin
      while !i < n && text.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '(' then begin
      incr depth;
      if !depth > max_depth then error "nesting deeper than %d" max_depth;
      tokens := "(" :: !tokens;
      incr i
    end
    else if c = ')' then begin
      decr depth;
      tokens := ")" :: !tokens;
      incr i
    end
    else begin
      let start = !i in
      while !i < n && is_atom_char text.[!i] do
        incr i
      done;
      tokens := String.sub text start (!i - start) :: !tokens
    end
  done;
  List.rev !tokens

let parse_all text =
  let rec read = function
    | [] -> error "unexpected end of input"
    | "(" :: rest ->
      let items, rest = read_list rest [] in
      (List items, rest)
    | ")" :: _ -> error "unexpected ')'"
    | atom :: rest -> (Atom atom, rest)
  and read_list tokens acc =
    match tokens with
    | [] -> error "missing ')'"
    | ")" :: rest -> (List.rev acc, rest)
    | _ ->
      let s, rest = read tokens in
      read_list rest (s :: acc)
  in
  let rec all tokens acc =
    match tokens with
    | [] -> List.rev acc
    | _ ->
      let s, rest = read tokens in
      all rest (s :: acc)
  in
  all (lex text) []

let parse_one text =
  match parse_all text with
  | [ s ] -> s
  | [] -> error "no s-expression in input"
  | _ :: _ :: _ -> error "more than one top-level s-expression"
