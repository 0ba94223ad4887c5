(* Request-scoped ambient context: a request id plus the stack of open span
   names, stored in domain-local storage. Domains do not inherit DLS on
   spawn, so a job handed to another domain carries its rid and path as
   plain data, and the receiving domain rebuilds the context with [make]
   and installs it with [with_ctx] — that explicit handoff is what lets one
   rid reconstruct a span tree that crosses domain boundaries. *)

type t = { rid : string; path : string list (* innermost first *) }

let none = { rid = ""; path = [] }

(* [path] arrives outermost-first (the order a wire hop list reads);
   internally the stack is innermost-first. *)
let make ~rid ?(path = []) () = { rid; path = List.rev path }

let key : t ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref none)

let current () = !(Domain.DLS.get key)

let rid () = (current ()).rid

let path () = List.rev (current ()).path

let path_string () = String.concat "/" (path ())

let with_ctx ctx f =
  let cell = Domain.DLS.get key in
  let old = !cell in
  cell := ctx;
  Fun.protect ~finally:(fun () -> cell := old) f

(* push/pop are called only from Obs's span machinery, and only when the
   store is on — idle cost is zero. *)

let push name =
  let cell = Domain.DLS.get key in
  cell := { !cell with path = name :: !cell.path }

let pop () =
  let cell = Domain.DLS.get key in
  match !cell.path with
  | [] -> ()
  | _ :: tl -> cell := { !cell with path = tl }
