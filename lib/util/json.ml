type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* -- Parsing --------------------------------------------------------------- *)

exception Fail of int * string

let max_depth = 128

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Fail (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | Some c' -> fail (Printf.sprintf "expected %C, found %C" c c')
    | None -> fail (Printf.sprintf "expected %C, found end of input" c)
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else fail (Printf.sprintf "invalid literal (expected %s)" word)
  in
  let hex4 () =
    if !pos + 4 > n then fail "truncated \\u escape";
    let v = ref 0 in
    for _ = 1 to 4 do
      let d =
        match s.[!pos] with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid hex digit in \\u escape"
      in
      v := (!v * 16) + d;
      advance ()
    done;
    !v
  in
  let utf8_add buf cp =
    (* Encode a Unicode scalar value as UTF-8. *)
    if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else if cp < 0x10000 then begin
      Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char buf (Char.chr (0xF0 lor (cp lsr 18)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 12) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let string_body () =
    let buf = Buffer.create 16 in
    let rec loop () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
        advance ();
        (match peek () with
        | None -> fail "unterminated escape"
        | Some c ->
          advance ();
          (match c with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'u' ->
            let cp = hex4 () in
            let cp =
              (* Surrogate pair: a high surrogate must be followed by
                 \uDC00-\uDFFF; decode the pair to one scalar value. *)
              if cp >= 0xD800 && cp <= 0xDBFF then begin
                if
                  !pos + 1 < n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
                then begin
                  pos := !pos + 2;
                  let lo = hex4 () in
                  if lo < 0xDC00 || lo > 0xDFFF then
                    fail "invalid low surrogate";
                  0x10000 + ((cp - 0xD800) lsl 10) + (lo - 0xDC00)
                end
                else fail "unpaired high surrogate"
              end
              else if cp >= 0xDC00 && cp <= 0xDFFF then
                fail "unpaired low surrogate"
              else cp
            in
            utf8_add buf cp
          | _ -> fail (Printf.sprintf "invalid escape \\%c" c)));
        loop ())
      | Some c when Char.code c < 0x20 ->
        fail "unescaped control character in string"
      | Some c ->
        advance ();
        Buffer.add_char buf c;
        loop ()
    in
    loop ();
    Buffer.contents buf
  in
  let number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while !pos < n && match s.[!pos] with '0' .. '9' -> true | _ -> false do
        advance ()
      done;
      if !pos = d0 then fail "expected digit"
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with
      | Some ('+' | '-') -> advance ()
      | _ -> ());
      digits ()
    | _ -> ());
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "invalid number"
  in
  let rec value depth =
    skip_ws ();
    match peek () with
    | None -> fail "expected value, found end of input"
    | Some ('{' | '[') when depth = max_depth ->
      fail (Printf.sprintf "nesting deeper than %d" max_depth)
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let members = ref [] in
        let rec loop () =
          skip_ws ();
          expect '"';
          let k = string_body () in
          skip_ws ();
          expect ':';
          let v = value (depth + 1) in
          members := (k, v) :: !members;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            loop ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}' in object"
        in
        loop ();
        Obj (List.rev !members)
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        Arr []
      end
      else begin
        let items = ref [] in
        let rec loop () =
          let v = value (depth + 1) in
          items := v :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            loop ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']' in array"
        in
        loop ();
        Arr (List.rev !items)
      end
    | Some '"' ->
      advance ();
      Str (string_body ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some ('-' | '0' .. '9') -> number ()
    | Some c -> fail (Printf.sprintf "unexpected character %C" c)
  in
  match
    let v = value 0 in
    skip_ws ();
    if !pos <> n then raise (Fail (!pos, "trailing garbage after value"));
    v
  with
  | v -> Ok v
  | exception Fail (at, msg) ->
    Error (Printf.sprintf "JSON error at offset %d: %s" at msg)

(* -- Printing -------------------------------------------------------------- *)

let escape_to buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let number_to_string f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.0f" f
  else
    (* Numbers must survive a print/parse round trip exactly: the trace
       clock anchors are epoch-seconds absolutes whose *differences*
       carry the signal, so truncating them to 12 significant digits
       (tens of microseconds at 1.8e9 s) corrupts sub-millisecond hop
       arithmetic downstream. Most numbers still print compactly. *)
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let to_string v =
  let buf = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Num f ->
      if Float.is_nan f || Float.abs f = infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (number_to_string f)
    | Str s -> escape_to buf s
    | Arr items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          go item)
        items;
      Buffer.add_char buf ']'
    | Obj members ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, item) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_to buf k;
          Buffer.add_char buf ':';
          go item)
        members;
      Buffer.add_char buf '}'
  in
  go v;
  Buffer.contents buf

(* -- Accessors ------------------------------------------------------------- *)

let member k = function
  | Obj members -> List.assoc_opt k members
  | Null | Bool _ | Num _ | Str _ | Arr _ -> None

let to_str = function Str s -> Some s | _ -> None

let to_num = function Num f -> Some f | _ -> None

let to_int = function Num f -> Some (int_of_float f) | _ -> None

let to_bool = function Bool b -> Some b | _ -> None

let mem_str k j = Option.bind (member k j) to_str

let mem_num k j = Option.bind (member k j) to_num

let mem_int k j = Option.bind (member k j) to_int

let mem_bool k j = Option.bind (member k j) to_bool
