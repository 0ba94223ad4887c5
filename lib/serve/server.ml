module Obs = Sepsat_obs.Obs
module Prom = Sepsat_obs.Prom
module Clock = Sepsat_obs.Clock
module Flight = Sepsat_obs.Flight
module Json = Sepsat_util.Json

let with_lock mu f =
  Mutex.lock mu;
  match f () with
  | v ->
    Mutex.unlock mu;
    v
  | exception e ->
    Mutex.unlock mu;
    raise e

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

let serve_channels eng ic oc =
  let out_mu = Mutex.create () in
  (* Out-standing submissions: the loop must not return (and the channels
     must not be torn down) while worker callbacks still owe replies. *)
  let pend_mu = Mutex.create () in
  let pend_cv = Condition.create () in
  let pending = ref 0 in
  let send reply =
    (* A vanished peer (EPIPE surfaces as Sys_error on channels) only costs
       the peer its replies; the serving loop keeps its invariants. *)
    try
      with_lock out_mu (fun () ->
          output_string oc (Protocol.reply_to_line reply);
          output_char oc '\n';
          flush oc)
    with Sys_error _ -> ()
  in
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
  in
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> `Eof
    | exception Sys_error _ -> `Eof
    | line -> (
      if String.trim line = "" then loop ()
      else
        match Protocol.request_of_line line with
        | Error msg ->
          send (Protocol.Error ("", "bad request: " ^ msg));
          loop ()
        | Ok (Protocol.Ping id) ->
          send (Protocol.Pong id);
          loop ()
        | Ok (Protocol.Stats_req id) ->
          send (Protocol.Stats (id, Engine.stats_json eng));
          loop ()
        | Ok (Protocol.Metrics_req id) ->
          send (Protocol.Metrics (id, Prom.current ()));
          loop ()
        | Ok (Protocol.Dump_req id) ->
          send (Protocol.Dump (id, Json.to_string (Flight.to_json ())));
          loop ()
        | Ok (Protocol.Shutdown id) ->
          send (Protocol.Bye id);
          `Shutdown
        | Ok (Protocol.Warm w) ->
          if
            Engine.warm eng ~key:w.Protocol.wr_key
              ~verdict:w.Protocol.wr_verdict ~witness:w.Protocol.wr_witness
              ~solve_ms:w.Protocol.wr_solve_ms
          then send (Protocol.Warmed w.Protocol.wr_id)
          else
            send
              (Protocol.Error
                 (w.Protocol.wr_id, "warm requires a decisive verdict"));
          loop ()
        | Ok (Protocol.Solve rq) ->
          let id = rq.Protocol.sq_id in
          let recv_wall, recv_mono = Clock.pair () in
          with_lock pend_mu (fun () -> incr pending);
          let cb (reply : Engine.reply) =
            (match reply with
            | Ok o ->
              let trace =
                Option.map
                  (fun tc -> reply_trace_of tc ~recv_wall ~recv_mono o)
                  rq.Protocol.sq_trace
              in
              send (solved_of_outcome ?trace id o)
            | Error msg -> send (Protocol.Error (id, msg)));
            with_lock pend_mu (fun () ->
                decr pending;
                Condition.signal pend_cv)
          in
          if not (Engine.submit eng (job_of rq) cb) then begin
            with_lock pend_mu (fun () ->
                decr pending;
                Condition.signal pend_cv);
            send (Protocol.Busy id)
          end;
          loop ())
  in
  let res = loop () in
  with_lock pend_mu (fun () ->
      while !pending > 0 do
        Condition.wait pend_cv pend_mu
      done);
  res

(* -- Metrics scrape listener ----------------------------------------------- *)

(* A minimal HTTP/1.0 responder so a stock Prometheus (or curl
   --unix-socket) can scrape without speaking the JSON-lines protocol.
   Scrapes are rare, tiny and read-only, so connections are handled
   serially on the listener thread — no per-connection threads, no
   keep-alive, close after one response. *)
let http_respond oc status content_type body =
  Printf.fprintf oc
    "HTTP/1.0 %s\r\n\
     Content-Type: %s; charset=utf-8\r\n\
     Content-Length: %d\r\n\
     Connection: close\r\n\
     \r\n\
     %s"
    status content_type (String.length body) body;
  flush oc

let handle_scrape cfd =
  let ic = Unix.in_channel_of_descr cfd in
  let oc = Unix.out_channel_of_descr cfd in
  (try
     let request_line = input_line ic in
     (* Drain headers to the blank line; we need none of them. *)
     (try
        while String.trim (input_line ic) <> "" do
          ()
        done
      with End_of_file -> ());
     match String.split_on_char ' ' (String.trim request_line) with
     | "GET" :: target :: _ when target = "/metrics" || target = "/" ->
       http_respond oc "200 OK" Prom.content_type (Prom.current ())
     | _ -> http_respond oc "404 Not Found" "text/plain" "not found\n"
   with End_of_file | Sys_error _ -> ());
  try Unix.close cfd with Unix.Unix_error _ -> ()

let serve_metrics ~path ~stop =
  (try Sys.remove path with Sys_error _ -> ());
  (* Bind before spawning: when this returns, the socket exists and a
     scraper may connect immediately. *)
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  Obs.log Obs.Info "serve: metrics on %s" path;
  Thread.create
    (fun () ->
      let rec loop () =
        if not (Atomic.get stop) then begin
          (match Unix.select [ listen_fd ] [] [] 0.25 with
          | [], _, _ -> ()
          | _ :: _, _, _ -> (
            match Unix.accept listen_fd with
            | exception
                Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) ->
              ()
            | cfd, _ -> ( try handle_scrape cfd with _ -> ()))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
          loop ()
        end
      in
      loop ();
      (try Unix.close listen_fd with Unix.Unix_error _ -> ());
      try Sys.remove path with Sys_error _ -> ())
    ()

let serve_unix ?metrics_path eng ~path =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 64;
  let stopping = Atomic.make false in
  let metrics_th =
    Option.map (fun p -> serve_metrics ~path:p ~stop:stopping) metrics_path
  in
  let conns_mu = Mutex.create () in
  let conns = ref [] in
  let handle cfd =
    let ic = Unix.in_channel_of_descr cfd in
    let oc = Unix.out_channel_of_descr cfd in
    let res = try serve_channels eng ic oc with _ -> `Eof in
    (try flush oc with Sys_error _ -> ());
    (try Unix.close cfd with Unix.Unix_error _ -> ());
    if res = `Shutdown then begin
      Atomic.set stopping true;
      Obs.log Obs.Info "serve: shutdown requested"
    end
  in
  (* Poll-accept so a shutdown arriving on any connection stops the
     listener within one poll interval — closing a blocked accept(2) from
     another thread is not portable. *)
  let rec accept_loop () =
    if not (Atomic.get stopping) then begin
      (match Unix.select [ listen_fd ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
        match Unix.accept listen_fd with
        | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _)
          ->
          ()
        | cfd, _ ->
          let th = Thread.create handle cfd in
          with_lock conns_mu (fun () -> conns := th :: !conns))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Obs.log Obs.Info "serve: listening on %s" path;
  accept_loop ();
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  List.iter Thread.join (with_lock conns_mu (fun () -> !conns));
  Option.iter Thread.join metrics_th;
  try Sys.remove path with Sys_error _ -> ()
