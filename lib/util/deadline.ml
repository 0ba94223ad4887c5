type t = {
  cpu_until : float option;
  wall_until : float option;
  stop : bool Atomic.t option;
}

exception Timeout

let none = { cpu_until = None; wall_until = None; stop = None }

let now () = Sys.time ()

let wall_now () = Unix.gettimeofday ()

let after s = { none with cpu_until = Some (now () +. s) }

let after_wall s = { none with wall_until = Some (wall_now () +. s) }

let with_stop t flag = { t with stop = Some flag }

let interrupted t =
  match t.stop with None -> false | Some f -> Atomic.get f

let exceeded t =
  interrupted t
  || (match t.cpu_until with None -> false | Some u -> now () > u)
  || match t.wall_until with None -> false | Some u -> wall_now () > u

let check t = if exceeded t then raise Timeout
