(** Poll-style readiness multiplexing for an event loop (the shard's
    {!Server}, the fleet router): a registry of file descriptors with
    read/write interest, one blocking {!wait} returning readiness. Backed
    by [Unix.select] — the portable readiness API in the stdlib — behind a
    poll(2)-shaped interface, so the loop code reads like an epoll/poll
    loop and the syscall is an implementation detail. *)

type t

type ready = {
  r_fd : Unix.file_descr;
  r_readable : bool;
  r_writable : bool;
}

val create : unit -> t

val set : t -> Unix.file_descr -> read:bool -> write:bool -> unit
(** Register or update interest; [read:false ~write:false] deregisters. *)

val remove : t -> Unix.file_descr -> unit

val registered : t -> int

val wait : t -> timeout_s:float -> ready list
(** Block until at least one registered fd is ready or the timeout
    elapses; [[]] on timeout or EINTR. An fd ready both ways yields two
    records, one per direction. Order is unspecified. *)
