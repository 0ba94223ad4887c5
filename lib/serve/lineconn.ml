(* One non-blocking JSON-lines peer of a poll loop (the shard's server, the
   fleet router). One thread owns every connection, so reads and writes
   take only what the kernel has ready and bank the rest: inbound bytes
   are scanned for '\n' once, the open line is banked in [inbuf] up to
   [max_line] (so a peer streaming bytes without a newline cannot grow the
   loop's memory), and outbound lines queue in [outq] behind an offset
   into the head chunk, so a slow peer stalls only its own queue. Write
   interest exists only while [wants_write]. *)

type t = {
  rfd : Unix.file_descr;
  wfd : Unix.file_descr;  (* = rfd except for stdin/stdout *)
  inbuf : Buffer.t;  (* the open line so far *)
  mutable outq : string list;  (* reversed tail; see enqueue *)
  mutable outhead : string;  (* chunk currently being written *)
  mutable outoff : int;  (* bytes of outhead already written *)
  mutable closed : bool;
}

let read_chunk = 65536

(* The largest request of a built-in suite is 408,637 bytes (a line of
   `sufdec submit --suite all`). *)
let max_line = 16 * 1024 * 1024

(* One read buffer per domain: a router and a server may share a process
   (the tests run both), each loop on its own domain. *)
let scratch = Domain.DLS.new_key (fun () -> Bytes.create read_chunk)

let create ?wfd rfd =
  let wfd = Option.value wfd ~default:rfd in
  Unix.set_nonblock rfd;
  Unix.set_nonblock wfd;
  {
    rfd;
    wfd;
    inbuf = Buffer.create 256;
    outq = [];
    outhead = "";
    outoff = 0;
    closed = false;
  }

let fd t = t.rfd

let wfd t = t.wfd

let wants_write t =
  (not t.closed) && (t.outoff < String.length t.outhead || t.outq <> [])

(* The first '\n' in [b.[i, n)], or -1. Eight bytes at a time while they
   last: with [x] a word xor '\n' in every byte, [(x - 0x01..) land
   (lnot x) land 0x80..] is non-zero iff some byte of [x] is zero. Request
   lines run to hundreds of KB, and a byte loop costs ~2 ns a byte. *)
let rec newline b i n =
  if i + 8 > n then
    if i = n then -1 else if Bytes.unsafe_get b i = '\n' then i
    else newline b (i + 1) n
  else
    let x = Int64.logxor (Bytes.get_int64_le b i) 0x0a0a0a0a0a0a0a0aL in
    let found =
      Int64.(
        logand (logand (sub x 0x0101010101010101L) (lognot x))
          0x8080808080808080L)
    in
    if found = 0L then newline b (i + 8) n
    else if Bytes.unsafe_get b i = '\n' then i
    else newline b (i + 1) n

(* Cut the complete, non-blank lines out of [chunk.[0, n)] onto [acc]
   (newest first), the banked open line prefixed to the first; bank the
   bytes after the last newline. *)
let split t chunk n acc =
  let rec go start acc =
    match newline chunk start n with
    | -1 ->
      Buffer.add_subbytes t.inbuf chunk start (n - start);
      acc
    | i ->
      let line =
        if Buffer.length t.inbuf = 0 then
          Bytes.sub_string chunk start (i - start)
        else begin
          Buffer.add_subbytes t.inbuf chunk start (i - start);
          let l = Buffer.contents t.inbuf in
          Buffer.clear t.inbuf;
          l
        end
      in
      go (i + 1) (if String.trim line = "" then acc else line :: acc)
  in
  go 0 acc

let on_readable t =
  if t.closed then `Closed
  else begin
    let chunk = Domain.DLS.get scratch in
    let rec drain acc =
      match Unix.read t.rfd chunk 0 read_chunk with
      | 0 -> (`Eof, acc)
      | n ->
        let acc = split t chunk n acc in
        if Buffer.length t.inbuf > max_line then (`Overlong, acc)
        else if n = read_chunk then drain acc
        else (`More, acc)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        (`More, acc)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain acc
      | exception Unix.Unix_error (_, _, _) -> (`Eof, acc)
    in
    match drain [] with
    | `Overlong, acc ->
      Buffer.reset t.inbuf;
      `Overlong (List.rev acc)
    (* Deliver what arrived before the close: a peer may send its last
       request and shut down its write side in one packet. *)
    | `Eof, [] -> `Closed
    | `More, [] -> `Nothing
    | (`Eof | `More), acc -> `Lines (List.rev acc)
  end

let enqueue_raw t s =
  if not t.closed then
    (* Reversed accumulation keeps enqueue O(1); [on_writable] restores
       order when it refills the head. *)
    t.outq <- s :: t.outq

let enqueue t line = enqueue_raw t (line ^ "\n")

let rec on_writable t =
  if t.closed then `Closed
  else if t.outoff >= String.length t.outhead then
    match List.rev t.outq with
    | [] -> `Ok
    | chunks ->
      t.outhead <- String.concat "" chunks;
      t.outoff <- 0;
      t.outq <- [];
      on_writable t
  else
    let len = String.length t.outhead - t.outoff in
    match Unix.write_substring t.wfd t.outhead t.outoff len with
    | n ->
      t.outoff <- t.outoff + n;
      if n = len then on_writable t else `Ok
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
      `Ok
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> on_writable t
    | exception Unix.Unix_error (_, _, _) -> `Closed

let close t =
  if not t.closed then begin
    t.closed <- true;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      (if t.wfd = t.rfd then [ t.rfd ] else [ t.rfd; t.wfd ])
  end
