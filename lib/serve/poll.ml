(* Readiness multiplexing for the single-threaded event loops of the
   shard's server and the fleet router.

   The interface is poll(2)-shaped — register an fd with a read/write
   interest mask, wait, get back per-fd revents — and the implementation
   rides on [Unix.select], the one readiness API the OCaml stdlib ships
   everywhere. The fleet's fd population (thousands of clients is the
   design target, but a router instance stays well under select's
   FD_SETSIZE on Linux where fds are cheap) makes select's O(n) scan
   acceptable: the loop already walks every ready fd, and the interest
   sets are rebuilt from the registry on each wait, which is what keeps
   the loop allocation-light and the registry the single source of
   truth. *)

type interest = { mutable want_read : bool; mutable want_write : bool }

type t = { reg : (Unix.file_descr, interest) Hashtbl.t }

type ready = {
  r_fd : Unix.file_descr;
  r_readable : bool;
  r_writable : bool;
}

let create () = { reg = Hashtbl.create 64 }

let set t fd ~read ~write =
  if not (read || write) then Hashtbl.remove t.reg fd
  else
    match Hashtbl.find_opt t.reg fd with
    | Some i ->
      i.want_read <- read;
      i.want_write <- write
    | None -> Hashtbl.replace t.reg fd { want_read = read; want_write = write }

let remove t fd = Hashtbl.remove t.reg fd

let registered t = Hashtbl.length t.reg

let wait t ~timeout_s =
  let rd = ref [] and wr = ref [] in
  Hashtbl.iter
    (fun fd i ->
      if i.want_read then rd := fd :: !rd;
      if i.want_write then wr := fd :: !wr)
    t.reg;
  if !rd = [] && !wr = [] then begin
    (* select([],[],[],t) is a portable sleep; without it an idle router
       would spin. *)
    if timeout_s > 0. then Unix.sleepf timeout_s;
    []
  end
  else
    match Unix.select !rd !wr [] timeout_s with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    | readable, writable, _ ->
      let ready r w fd = { r_fd = fd; r_readable = r; r_writable = w } in
      List.map (ready true false) readable
      @ List.map (ready false true) writable
