(* Backend process supervision: spawn N `sufdec serve` children, health-check
   them into service, reap crashes, restart with exponential backoff, and
   take the whole set down with no orphans.

   The supervisor is driven, not threaded: the router calls [tick] once per
   poll-loop iteration and reacts to the returned events. Everything in a
   tick is non-blocking or tightly bounded — child reaping is
   [waitpid WNOHANG], a health probe is one connect+ping with 1 s socket
   timeouts, and a probe happens at most once per tick per starting
   backend — so supervision never stalls request traffic.

   Backend lifecycle:

     Backoff --(timer expired: spawn)--> Starting
     Starting --(ping answered)--> Up            [event: Up]
     Starting --(health_timeout_s elapsed)--> killed, Backoff
     any --(child reaped)--> Backoff             [event: Down]

   The backoff delay doubles per consecutive failure (capped), and the
   failure count resets only after a backend has stayed up for
   [stable_s] — a backend that crashes right after passing its health
   check keeps escalating instead of hot-looping. *)

module Obs = Sepsat_obs.Obs
module Protocol = Sepsat_serve.Protocol

type config = {
  exe : string;  (* the sufdec binary; children are [exe :: args i sock] *)
  args : int -> string -> string list;  (* backend index, socket path -> argv tail *)
  n_backends : int;
  dir : string;  (* runtime dir; backend i listens on dir/backend-<i>.sock *)
  health_timeout_s : float;
  backoff_base_s : float;
  backoff_cap_s : float;
}

let default_config ~exe ~args ~n_backends ~dir =
  {
    exe;
    args;
    n_backends;
    dir;
    health_timeout_s = 10.;
    backoff_base_s = 0.2;
    backoff_cap_s = 5.;
  }

type state =
  | Starting of float  (* spawn wall time *)
  | Up of float  (* wall time the health check passed *)
  | Backoff of float  (* wall time the next spawn is due *)
  | Stopped

type backend = {
  bk_index : int;
  bk_socket : string;
  mutable bk_pid : int;  (* 0 = no live child *)
  mutable bk_state : state;
  mutable bk_failures : int;  (* consecutive, drives the backoff *)
  mutable bk_spawns : int;  (* lifetime spawn count *)
}

type t = {
  cfg : config;
  backends : backend array;
  devnull : Unix.file_descr;
  mutable stopping : bool;
}

type event = Became_up of int | Went_down of int

(* A backend must survive this long for its failure streak to reset. *)
let stable_s = 10.

let socket_path t i = t.backends.(i).bk_socket

let n t = t.cfg.n_backends

let is_up t i = match t.backends.(i).bk_state with Up _ -> true | _ -> false

let pid t i =
  match t.backends.(i).bk_pid with 0 -> None | p -> Some p

let failures t i = t.backends.(i).bk_failures

let spawns t i = t.backends.(i).bk_spawns

let backoff_delay cfg failures =
  let d = cfg.backoff_base_s *. (2. ** float_of_int (max 0 (failures - 1))) in
  Float.min cfg.backoff_cap_s d

let spawn t bk =
  (try Sys.remove bk.bk_socket with Sys_error _ -> ());
  let argv =
    Array.of_list (t.cfg.exe :: t.cfg.args bk.bk_index bk.bk_socket)
  in
  let pid =
    Unix.create_process t.cfg.exe argv t.devnull Unix.stdout Unix.stderr
  in
  bk.bk_pid <- pid;
  bk.bk_spawns <- bk.bk_spawns + 1;
  bk.bk_state <- Starting (Unix.gettimeofday ());
  Obs.log Obs.Info "fleet: backend %d spawned (pid %d, %s)" bk.bk_index pid
    bk.bk_socket

(* One connect+ping round trip with 1 s socket timeouts: cheap enough to
   run once per tick, bounded enough never to wedge the loop. A pong proves
   the shard's loop is serving. *)
let health_ping path =
  match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd ->
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        try
          Unix.setsockopt_float fd Unix.SO_RCVTIMEO 1.0;
          Unix.setsockopt_float fd Unix.SO_SNDTIMEO 1.0;
          Unix.connect fd (Unix.ADDR_UNIX path);
          let ping = Protocol.request_to_line (Protocol.Ping "hc") ^ "\n" in
          ignore (Unix.write_substring fd ping 0 (String.length ping));
          let reply = input_line (Unix.in_channel_of_descr fd) in
          match Protocol.reply_of_line reply with
          | Ok (Protocol.Pong _) -> true
          | _ -> false
        with Unix.Unix_error _ | Sys_error _ | End_of_file -> false)

let start cfg =
  if cfg.n_backends < 1 then invalid_arg "Supervisor.start: n_backends < 1";
  (try Unix.mkdir cfg.dir 0o755 with Unix.Unix_error _ -> ());
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  Unix.set_close_on_exec devnull;
  let t =
    {
      cfg;
      backends =
        Array.init cfg.n_backends (fun i ->
            {
              bk_index = i;
              bk_socket = Filename.concat cfg.dir (Printf.sprintf "backend-%d.sock" i);
              bk_pid = 0;
              bk_state = Backoff 0.;
              bk_failures = 0;
              bk_spawns = 0;
            });
      devnull;
      stopping = false;
    }
  in
  Array.iter (fun bk -> spawn t bk) t.backends;
  t

(* The router saw this backend's connection die before we reaped anything:
   force a fresh health check. If the child is really dead the next tick's
   waitpid turns this into a Went_down + backoff; if it is alive (it closed
   one connection, not the listener), the probe re-proves it Up. *)
let note_lost t i =
  let bk = t.backends.(i) in
  match bk.bk_state with
  | Up _ -> bk.bk_state <- Starting (Unix.gettimeofday ())
  | Starting _ | Backoff _ | Stopped -> ()

let tick t =
  if t.stopping then []
  else begin
    let now = Unix.gettimeofday () in
    let events = ref [] in
    Array.iter
      (fun bk ->
        (* Reap: a dead child trumps whatever state we thought it was in. *)
        (if bk.bk_pid > 0 then
           match Unix.waitpid [ Unix.WNOHANG ] bk.bk_pid with
           | 0, _ -> ()
           | _, _ | (exception Unix.Unix_error _) ->
             let was_up = match bk.bk_state with Up since -> Some since | _ -> None in
             bk.bk_pid <- 0;
             bk.bk_failures <-
               (match was_up with
               | Some since when now -. since >= stable_s -> 1
               | _ -> bk.bk_failures + 1);
             let delay = backoff_delay t.cfg bk.bk_failures in
             bk.bk_state <- Backoff (now +. delay);
             Obs.log Obs.Info
               "fleet: backend %d exited; restart in %.1fs (failure %d)"
               bk.bk_index delay bk.bk_failures;
             if was_up <> None then events := Went_down bk.bk_index :: !events);
        match bk.bk_state with
        | Backoff due when now >= due -> spawn t bk
        | Starting since ->
          if health_ping bk.bk_socket then begin
            bk.bk_state <- Up now;
            Obs.log Obs.Info "fleet: backend %d up" bk.bk_index;
            events := Became_up bk.bk_index :: !events
          end
          else if now -. since > t.cfg.health_timeout_s then begin
            (* Wedged before ever answering: kill and escalate. *)
            (if bk.bk_pid > 0 then
               try Unix.kill bk.bk_pid Sys.sigkill with Unix.Unix_error _ -> ());
            (if bk.bk_pid > 0 then
               try ignore (Unix.waitpid [] bk.bk_pid) with Unix.Unix_error _ -> ());
            bk.bk_pid <- 0;
            bk.bk_failures <- bk.bk_failures + 1;
            bk.bk_state <- Backoff (now +. backoff_delay t.cfg bk.bk_failures);
            Obs.log Obs.Info "fleet: backend %d failed health check" bk.bk_index
          end
        | Backoff _ | Up _ | Stopped -> ())
      t.backends;
    List.rev !events
  end

let stopping t = t.stopping

(* Graceful stop. The router has already propagated the shutdown op over
   each live backend connection, so most children exit on their own within
   the grace period; whoever remains gets SIGTERM, then SIGKILL. Every
   child is waited on — the fleet never leaves orphans. *)
let stop ?(grace_s = 5.) t =
  t.stopping <- true;
  let deadline = Unix.gettimeofday () +. grace_s in
  let reap bk =
    if bk.bk_pid > 0 then
      match Unix.waitpid [ Unix.WNOHANG ] bk.bk_pid with
      | 0, _ -> false
      | _ -> (
        bk.bk_pid <- 0;
        bk.bk_state <- Stopped;
        true)
      | exception Unix.Unix_error _ ->
        bk.bk_pid <- 0;
        bk.bk_state <- Stopped;
        true
    else begin
      bk.bk_state <- Stopped;
      true
    end
  in
  let all_done () = Array.for_all reap t.backends in
  let rec wait_until escalate =
    if all_done () then ()
    else if Unix.gettimeofday () >= deadline then escalate ()
    else begin
      Unix.sleepf 0.05;
      wait_until escalate
    end
  in
  wait_until (fun () ->
      Array.iter
        (fun bk ->
          if bk.bk_pid > 0 then
            try Unix.kill bk.bk_pid Sys.sigterm with Unix.Unix_error _ -> ())
        t.backends;
      let term_deadline = Unix.gettimeofday () +. 2. in
      let rec wait_term () =
        if all_done () then ()
        else if Unix.gettimeofday () >= term_deadline then begin
          Array.iter
            (fun bk ->
              if bk.bk_pid > 0 then begin
                (try Unix.kill bk.bk_pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] bk.bk_pid)
                 with Unix.Unix_error _ -> ());
                bk.bk_pid <- 0;
                bk.bk_state <- Stopped
              end)
            t.backends
        end
        else begin
          Unix.sleepf 0.05;
          wait_term ()
        end
      in
      wait_term ());
  Array.iter
    (fun bk -> try Sys.remove bk.bk_socket with Sys_error _ -> ())
    t.backends;
  try Unix.close t.devnull with Unix.Unix_error _ -> ()
