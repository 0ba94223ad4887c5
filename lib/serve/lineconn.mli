(** A buffered non-blocking JSON-lines connection as a poll loop (the
    shard's {!Server}, the fleet router) sees one peer: reads bank partial
    lines until a newline completes them, writes drain an outbound queue
    as far as the fd allows and park the rest. {!create} makes the fds
    non-blocking and takes ownership ({!close} closes them). *)

type t

val max_line : int
(** The longest partial line a connection banks: 16 MiB. *)

val create : ?wfd:Unix.file_descr -> Unix.file_descr -> t
(** Read and write [fd], or read [fd] and write [wfd] (stdin, stdout). *)

val fd : t -> Unix.file_descr
(** The fd read. *)

val wfd : t -> Unix.file_descr
(** The fd written. *)

val on_readable :
  t -> [ `Lines of string list | `Nothing | `Closed | `Overlong of string list ]
(** Drain what the kernel has ready. [`Lines] are the complete, non-blank
    lines that became available (a final batch may accompany the peer's
    EOF — the connection reports [`Closed] on the {e next} call);
    [`Nothing] means no line completed; [`Closed] means EOF or a hard error
    with nothing pending. [`Overlong] means the open line passed
    {!max_line}: it is discarded, the lines completed before it are
    delivered, and the caller should read this connection no more. *)

val enqueue : t -> string -> unit
(** Queue one protocol line (newline appended). O(1); dropped silently on
    a closed connection. *)

val enqueue_raw : t -> string -> unit
(** Queue bytes as they are (an HTTP response). *)

val on_writable : t -> [ `Ok | `Closed ]
(** Flush as much of the queue as the fd accepts without blocking. *)

val wants_write : t -> bool
(** Whether anything is waiting to be flushed — the write-interest bit for
    {!Poll.set}. *)

val close : t -> unit
(** Close the fds. Idempotent. *)
