(* One thread, one poll loop: the listening socket, the optional metrics
   listener, every client connection (stdin/stdout is one in stdio mode)
   and the read end of a self-pipe. Solve callbacks run on worker domains;
   they post (connection, reply line) to a locked mailbox and write one
   byte to the pipe, and the loop moves the mailbox into the connections'
   queues. The mailbox is the only state the loop shares. *)

module Obs = Sepsat_obs.Obs
module Prom = Sepsat_obs.Prom
module Clock = Sepsat_obs.Clock
module Flight = Sepsat_obs.Flight
module Json = Sepsat_util.Json

let solved_of_outcome ?trace id (o : Engine.outcome) =
  Protocol.Ok_solve
    {
      Protocol.sv_id = id;
      sv_verdict = o.Engine.o_verdict;
      sv_origin = o.Engine.o_origin;
      sv_digest = o.Engine.o_digest;
      sv_witness = o.Engine.o_witness;
      sv_solve_ms = o.Engine.o_solve_ms;
      sv_time_ms = o.Engine.o_time_ms;
      sv_trace = trace;
    }

(* Reply-side trace for a request that arrived with a wire trace context:
   this process's recv/send clock anchors plus its local hop breakdown.
   The receiver (the fleet router) turns the anchors into the [wire] hop
   and splices these local hops into the six-hop fleet view. *)
let reply_trace_of (tc : Protocol.trace_ctx) ~recv_wall ~recv_mono
    (o : Engine.outcome) =
  let send_wall, send_mono = Clock.pair () in
  {
    Protocol.rt_rid = tc.Protocol.tc_rid;
    rt_served_by =
      Option.value (Prom.const_label "backend") ~default:"";
    rt_hops =
      [
        ("shard.queue", o.Engine.o_queue_ms); ("shard.solve", o.Engine.o_time_ms);
      ];
    rt_recv_wall = recv_wall;
    rt_recv_mono = recv_mono;
    rt_send_wall = send_wall;
    rt_send_mono = send_mono;
  }

let job_of (rq : Protocol.solve_req) =
  (* A wire trace context wins over local minting: the job adopts the
     fleet rid and hop path so everything recorded while serving it
     answers to the fleet-wide id. *)
  let rid, path =
    match rq.Protocol.sq_trace with
    | Some tc -> (Some tc.Protocol.tc_rid, tc.Protocol.tc_path)
    | None -> (None, [])
  in
  Engine.job ~lang:rq.Protocol.sq_lang ~method_:rq.Protocol.sq_method
    ?timeout_s:rq.Protocol.sq_timeout_s ~id:rq.Protocol.sq_id ?rid ~path
    rq.Protocol.sq_text

(* A minimal HTTP/1.0 response to a scrape's request line, so a stock
   Prometheus (or curl --unix-socket) needs no JSON. *)
let http_response request_line =
  let status, content_type, body =
    match String.split_on_char ' ' (String.trim request_line) with
    | "GET" :: ("/metrics" | "/") :: _ ->
      ("200 OK", Prom.content_type, Prom.current ())
    | _ -> ("404 Not Found", "text/plain", "not found\n")
  in
  Printf.sprintf
    "HTTP/1.0 %s\r\n\
     Content-Type: %s; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body

type kind = Client | Scrape

type conn = {
  lc : Lineconn.t;
  kind : kind;
  mutable reading : bool;
      (* false after EOF, shutdown, an overlong line or a scrape's request
         line: the connection closes once it owes nothing *)
  mutable owed : int;  (* accepted solves whose replies are not queued *)
}

type t = {
  eng : Engine.t;
  poll : Poll.t;
  mutable conns : conn list;
  mutable listeners : (Unix.file_descr * string * kind) list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  mbox_mu : Mutex.t;
  mutable mbox : (conn * string) list;  (* newest first *)
  mutable inflight : int;  (* accepted solves not yet answered *)
  mutable shutdown : bool;
}

let drop t c =
  t.conns <- List.filter (( != ) c) t.conns;
  List.iter (Poll.remove t.poll) [ Lineconn.fd c.lc; Lineconn.wfd c.lc ];
  Lineconn.close c.lc

let close_listeners t =
  List.iter
    (fun (fd, path, _) ->
      Poll.remove t.poll fd;
      (try Unix.close fd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    t.listeners;
  t.listeners <- []

(* Runs on a worker domain. EAGAIN on the non-blocking pipe means a wake
   is already pending. Writing under the lock means that once the loop has
   taken the last reply, no worker touches the pipe again. *)
let post t c line =
  Mutex.protect t.mbox_mu (fun () ->
      t.mbox <- (c, line) :: t.mbox;
      try ignore (Unix.single_write_substring t.wake_w "!" 0 1)
      with Unix.Unix_error _ -> ())

(* A reply owed to a connection that has closed is dropped by [enqueue]. *)
let deliver t =
  let posted =
    Mutex.protect t.mbox_mu (fun () ->
        let m = t.mbox in
        t.mbox <- [];
        m)
  in
  List.iter
    (fun (c, line) ->
      t.inflight <- t.inflight - 1;
      c.owed <- c.owed - 1;
      Lineconn.enqueue c.lc line)
    (List.rev posted)

let send c reply = Lineconn.enqueue c.lc (Protocol.reply_to_line reply)

let request t c line =
  match Protocol.request_of_line line with
  | Error msg -> send c (Protocol.Error ("", "bad request: " ^ msg))
  | Ok (Protocol.Ping id) -> send c (Protocol.Pong id)
  | Ok (Protocol.Stats_req id) ->
    send c (Protocol.Stats (id, Engine.stats_json t.eng))
  | Ok (Protocol.Metrics_req id) ->
    send c (Protocol.Metrics (id, Prom.current ()))
  | Ok (Protocol.Dump_req id) ->
    send c (Protocol.Dump (id, Json.to_string (Flight.to_json ())))
  | Ok (Protocol.Shutdown id) ->
    send c (Protocol.Bye id);
    c.reading <- false;
    if not t.shutdown then begin
      t.shutdown <- true;
      close_listeners t;
      Obs.log Obs.Info "serve: shutdown requested"
    end
  | Ok (Protocol.Warm w) ->
    if
      Engine.warm t.eng ~key:w.Protocol.wr_key ~verdict:w.Protocol.wr_verdict
        ~witness:w.Protocol.wr_witness ~solve_ms:w.Protocol.wr_solve_ms
    then send c (Protocol.Warmed w.Protocol.wr_id)
    else
      send c
        (Protocol.Error (w.Protocol.wr_id, "warm requires a decisive verdict"))
  | Ok (Protocol.Solve rq) ->
    let id = rq.Protocol.sq_id in
    let recv_wall, recv_mono = Clock.pair () in
    let cb (reply : Engine.reply) =
      post t c
        (Protocol.reply_to_line
           (match reply with
           | Ok o ->
             let trace =
               Option.map
                 (fun tc -> reply_trace_of tc ~recv_wall ~recv_mono o)
                 rq.Protocol.sq_trace
             in
             solved_of_outcome ?trace id o
           | Error msg -> Protocol.Error (id, msg)))
    in
    if Engine.submit t.eng (job_of rq) cb then begin
      c.owed <- c.owed + 1;
      t.inflight <- t.inflight + 1
    end
    else send c (Protocol.Busy id)

let on_line t c line =
  match c.kind with
  | Scrape ->
    Lineconn.enqueue_raw c.lc (http_response line);
    c.reading <- false
  | Client -> (
    (* A request the loop cannot serve ends its connection, not the
       server. *)
    try request t c line with _ -> c.reading <- false)

let on_ready t (r : Poll.ready) =
  let fd = r.Poll.r_fd in
  let mine c = Lineconn.fd c.lc = fd || Lineconn.wfd c.lc = fd in
  if fd = t.wake_r then begin
    let buf = Bytes.create 64 in
    while (try Unix.read fd buf 0 64 with Unix.Unix_error _ -> 0) = 64 do
      ()
    done
  end
  else
    let listener = List.find_opt (fun (l, _, _) -> l = fd) t.listeners in
    match (listener, List.find_opt mine t.conns) with
    | Some (_, _, kind), _ ->
      let rec accept () =
        match Unix.accept ~cloexec:true fd with
        | cfd, _ ->
          let lc = Lineconn.create cfd in
          t.conns <- { lc; kind; reading = true; owed = 0 } :: t.conns;
          accept ()
        | exception Unix.Unix_error _ -> ()
      in
      accept ()
    | None, None -> ()  (* closed earlier in this round *)
    | None, Some c -> (
      let lines = List.iter (fun l -> if c.reading then on_line t c l) in
      if r.Poll.r_writable && Lineconn.on_writable c.lc = `Closed then drop t c
      else if r.Poll.r_readable && c.reading then
        match Lineconn.on_readable c.lc with
        | `Nothing -> ()
        | `Closed -> c.reading <- false
        | `Lines ls -> lines ls
        | `Overlong ls ->
          lines ls;
          if c.reading && c.kind = Client then
            send c
              (Protocol.Error
                 ( "",
                   Printf.sprintf "bad request: line longer than %d bytes"
                     Lineconn.max_line ));
          c.reading <- false)

(* Flush; close a connection that reads no more once it owes nothing;
   otherwise register what it waits for. A connection whose replies the
   socket does not take is not read either: a peer that pipelines without
   reading stalls itself instead of growing the server's queues. *)
let settle t c =
  let lc = c.lc in
  if Lineconn.wants_write lc && Lineconn.on_writable lc = `Closed then drop t c
  else if (not c.reading) && c.owed = 0 && not (Lineconn.wants_write lc) then
    drop t c
  else begin
    let rfd = Lineconn.fd lc and wfd = Lineconn.wfd lc in
    let write = Lineconn.wants_write lc in
    let read = c.reading && not write in
    Poll.set t.poll rfd ~read ~write:(write && rfd = wfd);
    if rfd <> wfd then Poll.set t.poll wfd ~read:false ~write
  end

(* Serve until no client can arrive or is left: the client listener is
   closed (a shutdown) or absent (stdio), every client connection has
   closed and every accepted solve has been answered. *)
let run t =
  Poll.set t.poll t.wake_r ~read:true ~write:false;
  List.iter
    (fun (fd, _, _) -> Poll.set t.poll fd ~read:true ~write:false)
    t.listeners;
  let busy () =
    t.inflight > 0
    || List.exists (fun (_, _, k) -> k = Client) t.listeners
    || List.exists (fun c -> c.kind = Client) t.conns
  in
  let rec loop () =
    deliver t;
    List.iter (settle t) t.conns;
    if busy () then begin
      List.iter (on_ready t) (Poll.wait t.poll ~timeout_s:(-1.));
      loop ()
    end
  in
  loop ();
  List.iter (drop t) t.conns;
  close_listeners t;
  Unix.close t.wake_r;
  Unix.close t.wake_w

let listen kind path =
  (try Sys.remove path with Sys_error _ -> ());
  let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_UNIX path);
  Unix.listen fd 64;
  Unix.set_nonblock fd;
  (fd, path, kind)

(* The metrics socket is bound first: once the client socket exists, both
   do. *)
let create ?metrics_path ?path eng =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let metrics = Option.map (listen Scrape) metrics_path in
  Option.iter (Obs.log Obs.Info "serve: metrics on %s") metrics_path;
  let client = Option.map (listen Client) path in
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  {
    eng;
    poll = Poll.create ();
    conns = [];
    listeners = Option.to_list metrics @ Option.to_list client;
    wake_r;
    wake_w;
    mbox_mu = Mutex.create ();
    mbox = [];
    inflight = 0;
    shutdown = false;
  }

let serve_unix ?metrics_path eng ~path =
  let t = create ?metrics_path ~path eng in
  Obs.log Obs.Info "serve: listening on %s" path;
  run t

let serve_stdio ?metrics_path ?(input = Unix.stdin) ?(output = Unix.stdout)
    eng =
  let t = create ?metrics_path eng in
  (* Duplicates, so the loop may close them; O_NONBLOCK is shared with
     the originals, hence cleared on the way out. *)
  let wfd = Unix.dup ~cloexec:true output in
  let lc = Lineconn.create ~wfd (Unix.dup ~cloexec:true input) in
  t.conns <- [ { lc; kind = Client; reading = true; owed = 0 } ];
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun fd -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
        [ input; output ])
    (fun () -> run t);
  if t.shutdown then `Shutdown else `Eof
