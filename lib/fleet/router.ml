(* The fleet front end: one single-threaded poll loop multiplexing every
   client connection, every backend connection, and the listener.

   Request path: a client's JSON-lines request is parsed once, here. A
   solve is parsed into a fresh AST context to compute the structural
   [Ast.digest] — the routing key. The digest first consults the
   persistent disk cache (a hit answers on the spot, surviving restarts);
   a miss is forwarded to the backend the consistent-hash ring names for
   that digest, with the request id rewritten to a router-minted wire id
   so pipelined replies from many clients can be demultiplexed without
   any per-request thread. Replies rewrite the id back, feed the disk
   cache, and go out through the client's buffered connection.

   Failure path: a backend that dies (reaped by the supervisor, or its
   connection EOFs under us) has its in-flight solves re-dispatched along
   the ring's failover order — any backend computes the same verdict, so
   a SIGKILL mid-request costs latency, never an answer. When no live
   backend remains, the router sheds with [busy]; clients retry with
   backoff (see [Session.retrying]).

   Fan-out path: [stats], [metrics] and [dump] go to every live backend;
   the replies merge into one — stats aggregate into an engine-shaped
   object (so `sufdec top` reads a fleet like a single server) with a
   per-backend breakdown, metrics expositions concatenate with their
   metadata lines deduplicated (backends carry distinct [backend="i"]
   labels), dumps nest per-backend flight documents in one JSON value.

   Shutdown ordering: a [shutdown] op (or SIGTERM/SIGINT) drains first —
   the listener stops accepting, new solves shed busy, in-flight requests
   finish and flush — then the shutdown op propagates to every backend,
   the supervisor reaps every child, and only then does the requester get
   its [bye]. Exit leaves no orphan processes and no socket files. *)

module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Smtlib = Sepsat_suf.Smtlib
module Protocol = Sepsat_serve.Protocol
module Poll = Sepsat_serve.Poll
module Lineconn = Sepsat_serve.Lineconn
module Json = Sepsat_util.Json
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Prom = Sepsat_obs.Prom
module Window = Sepsat_obs.Window
module Flight = Sepsat_obs.Flight
module Clock = Sepsat_obs.Clock

type config = {
  rc_socket : string;
  rc_cache_path : string option;  (* persistent verdict log; None = off *)
  rc_warm_limit : int;  (* max warm entries replayed per backend start *)
  rc_poll_s : float;  (* poll timeout = supervision cadence *)
  rc_max_attempts : int;  (* dispatch attempts per solve across failovers *)
}

let default_config ~socket ?cache_path () =
  {
    rc_socket = socket;
    rc_cache_path = cache_path;
    rc_warm_limit = 4096;
    rc_poll_s = 0.2;
    rc_max_attempts = 3;
  }

(* -- Requests in flight ----------------------------------------------------- *)

type psolve = {
  ps_client : int;
  ps_orig_id : string;
  ps_digest : string;  (* ring key *)
  ps_key : string;  (* digest|method — the cache key *)
  ps_rq : Protocol.solve_req;  (* carries the minted trace context *)
  ps_tried : int list;  (* backends this solve was already sent to *)
  ps_t0 : float;
  ps_rid : string;  (* fleet-wide trace rid, minted once per request *)
  ps_recv_wall : float;  (* request arrival, Clock.pair *)
  ps_recv_mono : float;
  ps_parsed_mono : float;  (* after parse + digest *)
  ps_sent_mono : float;  (* last dispatch to a backend; re-stamped on failover *)
}

type fan = {
  fan_client : int;
  fan_orig_id : string;
  fan_op : [ `Stats | `Metrics | `Dump ];
  mutable fan_waiting : int;
  mutable fan_parts : (int * Protocol.reply option) list;
      (* backend index, its reply; None = backend lost mid-fan *)
}

type kind = K_solve of psolve | K_fan of fan

type pending = { pd_backend : int; pd_kind : kind }

type client = { cl_id : int; cl_conn : Lineconn.t }

(* Per-backend hop-time accumulator (summed ms + request count), the
   source of the per-backend hop columns in merged stats / `sufdec top`.
   Plain mutable fields: the router is single-threaded. *)
type hop_acc = {
  mutable ha_count : int;
  mutable ha_parse : float;
  mutable ha_queue : float;
  mutable ha_wire : float;
  mutable ha_shard_queue : float;
  mutable ha_solve : float;
  mutable ha_reply : float;
}

let fresh_hop_acc () =
  {
    ha_count = 0;
    ha_parse = 0.;
    ha_queue = 0.;
    ha_wire = 0.;
    ha_shard_queue = 0.;
    ha_solve = 0.;
    ha_reply = 0.;
  }

type t = {
  cfg : config;
  sup : Supervisor.t;
  store : Disk_cache.t option;
  ring : Ring.t;  (* static full membership; liveness filters at dispatch *)
  poll : Poll.t;
  listen_fd : Unix.file_descr;
  clients : (int, client) Hashtbl.t;
  by_fd : (Unix.file_descr, [ `Client of int | `Backend of int ]) Hashtbl.t;
  bconns : Lineconn.t option array;
  pending : (string, pending) Hashtbl.t;
  mutable next_client : int;
  mutable next_wire : int;
  mutable next_rid : int;
  hops : hop_acc array;  (* per backend, indexed like bconns *)
  lat : Window.t;
  mutable submitted : int;
  mutable completed : int;
  mutable busy : int;
  mutable errors : int;
  mutable redispatched : int;
  mutable disk_writes : int;
  mutable draining : bool;
  mutable drain_requester : (int * string) option;
  mutable finished : bool;
  started_at : float;
}

let m_requests = Metrics.handle Metrics.counter "fleet.requests"
let m_busy = Metrics.handle Metrics.counter "fleet.busy"
let m_errors = Metrics.handle Metrics.counter "fleet.errors"
let m_disk_hits = Metrics.handle Metrics.counter "fleet.disk.hits"
let m_redispatch = Metrics.handle Metrics.counter "fleet.redispatch"
let m_clients = Metrics.handle Metrics.gauge "fleet.clients"

(* The six-hop latency decomposition of a fleet request, as histograms
   (seconds, rid exemplars): where did the time go, across processes. *)
let m_hop_parse = Metrics.handle Metrics.histogram "fleet.hop.router_parse_s"
let m_hop_queue = Metrics.handle Metrics.histogram "fleet.hop.router_queue_s"
let m_hop_wire = Metrics.handle Metrics.histogram "fleet.hop.wire_s"
let m_hop_shard_queue = Metrics.handle Metrics.histogram "fleet.hop.shard_queue_s"
let m_hop_solve = Metrics.handle Metrics.histogram "fleet.hop.shard_solve_s"
let m_hop_reply = Metrics.handle Metrics.histogram "fleet.hop.reply_s"

let stop_flag = Atomic.make false

let mint_wire t =
  t.next_wire <- t.next_wire + 1;
  Printf.sprintf "f%d" t.next_wire

(* Fleet-wide request ids: the pid makes them unique across router
   restarts sharing a socket path, so merged flight dumps never collide. *)
let mint_rid t =
  t.next_rid <- t.next_rid + 1;
  Printf.sprintf "fl-%d-%d" (Unix.getpid ()) t.next_rid

(* -- Client I/O ------------------------------------------------------------- *)

let reply_client t cl_id reply =
  match Hashtbl.find_opt t.clients cl_id with
  | None -> ()  (* client went away; its replies evaporate *)
  | Some cl -> Lineconn.enqueue cl.cl_conn (Protocol.reply_to_line reply)

let drop_client t cl_id =
  match Hashtbl.find_opt t.clients cl_id with
  | None -> ()
  | Some cl ->
    Hashtbl.remove t.clients cl_id;
    Hashtbl.remove t.by_fd (Lineconn.fd cl.cl_conn);
    Poll.remove t.poll (Lineconn.fd cl.cl_conn);
    Lineconn.close cl.cl_conn;
    Metrics.set (m_clients ()) (float_of_int (Hashtbl.length t.clients))

let accept_clients t =
  let rec loop () =
    match Unix.accept ~cloexec:true t.listen_fd with
    | exception Unix.Unix_error _ -> ()
    | fd, _ ->
      t.next_client <- t.next_client + 1;
      let cl = { cl_id = t.next_client; cl_conn = Lineconn.create fd } in
      Hashtbl.replace t.clients cl.cl_id cl;
      Hashtbl.replace t.by_fd fd (`Client cl.cl_id);
      Metrics.set (m_clients ())
        (float_of_int (Hashtbl.length t.clients));
      loop ()
  in
  loop ()

(* -- Backend connections ---------------------------------------------------- *)

let disconnect_backend t i =
  match t.bconns.(i) with
  | None -> ()
  | Some conn ->
    Hashtbl.remove t.by_fd (Lineconn.fd conn);
    Poll.remove t.poll (Lineconn.fd conn);
    Lineconn.close conn;
    t.bconns.(i) <- None

let connect_backend t i =
  disconnect_backend t i;
  let path = Supervisor.socket_path t.sup i in
  match Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 with
  | exception Unix.Unix_error _ -> false
  | fd -> (
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | exception Unix.Unix_error _ ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      false
    | () ->
      let conn = Lineconn.create fd in
      t.bconns.(i) <- Some conn;
      Hashtbl.replace t.by_fd fd (`Backend i);
      true)

(* Replay this backend's share of the persistent cache into its fresh LRU.
   Warm requests carry the fixed id "warm"; their replies match no pending
   entry and are dropped — fire-and-forget by construction. *)
let warm_backend t i =
  match (t.store, t.bconns.(i)) with
  | Some store, Some conn ->
    let sent = ref 0 in
    Disk_cache.iter store (fun key e ->
        if !sent < t.cfg.rc_warm_limit then
          let digest =
            match String.index_opt key '|' with
            | Some cut -> String.sub key 0 cut
            | None -> key
          in
          if Ring.lookup t.ring digest = Some i then begin
            Lineconn.enqueue conn
              (Protocol.request_to_line
                 (Protocol.Warm
                    {
                      Protocol.wr_id = "warm";
                      wr_key = key;
                      wr_verdict = e.Disk_cache.d_verdict;
                      wr_witness = e.Disk_cache.d_witness;
                      wr_solve_ms = e.Disk_cache.d_solve_ms;
                    }));
            incr sent
          end);
    if !sent > 0 then
      Obs.log Obs.Info "fleet: warmed backend %d with %d cached verdicts" i !sent
  | _ -> ()

let live_backends t =
  let out = ref [] in
  for i = Supervisor.n t.sup - 1 downto 0 do
    if Supervisor.is_up t.sup i && t.bconns.(i) <> None then out := i :: !out
  done;
  !out

(* -- Solve dispatch --------------------------------------------------------- *)

let dispatch t (ps : psolve) =
  let candidates =
    List.filter
      (fun b ->
        Supervisor.is_up t.sup b
        && t.bconns.(b) <> None
        && not (List.mem b ps.ps_tried))
      (Ring.lookup_order t.ring ps.ps_digest)
  in
  match candidates with
  | [] ->
    t.busy <- t.busy + 1;
    Metrics.incr (m_busy ());
    reply_client t ps.ps_client (Protocol.Busy ps.ps_orig_id)
  | b :: _ ->
    let wire = mint_wire t in
    let sent_mono = Clock.mono_now () in
    let ps =
      { ps with ps_tried = b :: ps.ps_tried; ps_sent_mono = sent_mono }
    in
    Hashtbl.replace t.pending wire
      { pd_backend = b; pd_kind = K_solve ps };
    Obs.record ~rid:ps.ps_rid
      ~dur_ms:((sent_mono -. ps.ps_parsed_mono) *. 1000.)
      ~data:[ ("backend", string_of_int b) ]
      Obs.Span "hop.router_queue";
    (match t.bconns.(b) with
    | Some conn ->
      Lineconn.enqueue conn
        (Protocol.request_to_line
           (Protocol.Solve { ps.ps_rq with Protocol.sq_id = wire }))
    | None -> assert false)

let redispatch t wire (ps : psolve) =
  Hashtbl.remove t.pending wire;
  if List.length ps.ps_tried >= t.cfg.rc_max_attempts then begin
    t.errors <- t.errors + 1;
    Metrics.incr (m_errors ());
    reply_client t ps.ps_client
      (Protocol.Error (ps.ps_orig_id, "backend lost during solve"))
  end
  else begin
    t.redispatched <- t.redispatched + 1;
    Metrics.incr (m_redispatch ());
    (* The re-dispatched request keeps its original rid (ps_rq still
       carries the minted trace context), so the trace shows one request
       crossing two backends rather than two requests. *)
    Obs.record ~rid:ps.ps_rid
      ~data:[ ("attempt", string_of_int (List.length ps.ps_tried)) ]
      Obs.Event "fleet.redispatch";
    dispatch t ps
  end

(* -- Fan-out ops ------------------------------------------------------------ *)

let fan_merge_stats t fan =
  let module J = Json in
  let parts =
    List.sort compare fan.fan_parts
    |> List.map (fun (b, r) ->
           match r with
           | Some (Protocol.Stats (_, j)) -> (b, Some j)
           | _ -> (b, None))
  in
  let num k j = Option.value ~default:0. (J.mem_num k j) in
  let sum k =
    List.fold_left
      (fun acc (_, j) -> match j with Some j -> acc +. num k j | None -> acc)
      0. parts
  in
  let sum_cache k =
    List.fold_left
      (fun acc (_, j) ->
        match Option.bind j (J.member "cache") with
        | Some c -> acc +. num k c
        | None -> acc)
      0. parts
  in
  (* Lanes keep their per-backend identity through a name prefix, so `top`
     shows b0:serve:worker-1 and friends side by side. *)
  let lanes =
    List.concat_map
      (fun (b, j) ->
        match Option.bind j (J.member "lanes") with
        | Some (J.Arr ls) ->
          List.map
            (fun ln ->
              match ln with
              | J.Obj fields ->
                J.Obj
                  (List.map
                     (fun (k, v) ->
                       match (k, v) with
                       | "name", J.Str n ->
                         (k, J.Str (Printf.sprintf "b%d:%s" b n))
                       | _ -> (k, v))
                     fields)
              | other -> other)
            ls
        | _ -> [])
      parts
  in
  (* A part's own "backend" field (the shard's const label) names it;
     the ring index is the fallback for shards predating the field. *)
  let label_of b j =
    match Option.bind j (J.mem_str "backend") with
    | Some l when l <> "" -> l
    | _ -> string_of_int b
  in
  (* Exemplars merge tagged with their backend, so `top` can show which
     shard each slow rid ran on instead of an indistinguishable pool. *)
  let exemplars =
    List.concat_map
      (fun (b, j) ->
        match Option.bind j (J.member "exemplars") with
        | Some (J.Arr es) ->
          List.map
            (fun e ->
              match e with
              | J.Obj fields ->
                J.Obj (fields @ [ ("backend", J.Str (label_of b j)) ])
              | other -> other)
            es
        | _ -> [])
      parts
  in
  let quantiles = Window.quantiles t.lat [ 0.5; 0.9; 0.99 ] in
  let p50, p90, p99 =
    match quantiles with [ a; b; c ] -> (a, b, c) | _ -> (0., 0., 0.)
  in
  let disk =
    match t.store with
    | None -> J.Null
    | Some store ->
      let s = Disk_cache.stats store in
      J.Obj
        [
          ("size", J.Num (float_of_int s.Disk_cache.s_size));
          ("loaded", J.Num (float_of_int s.Disk_cache.s_loaded));
          ("appended", J.Num (float_of_int s.Disk_cache.s_appended));
          ("hits", J.Num (float_of_int s.Disk_cache.s_hits));
          ("misses", J.Num (float_of_int s.Disk_cache.s_misses));
        ]
  in
  let hops_json b =
    if b < 0 || b >= Array.length t.hops then J.Null
    else
      let a = t.hops.(b) in
      if a.ha_count = 0 then J.Null
      else
        let mean v = v /. float_of_int a.ha_count in
        J.Obj
          [
            ("count", J.Num (float_of_int a.ha_count));
            ("router_parse_ms", J.Num (mean a.ha_parse));
            ("router_queue_ms", J.Num (mean a.ha_queue));
            ("wire_ms", J.Num (mean a.ha_wire));
            ("shard_queue_ms", J.Num (mean a.ha_shard_queue));
            ("shard_solve_ms", J.Num (mean a.ha_solve));
            ("reply_ms", J.Num (mean a.ha_reply));
          ]
  in
  let backend_detail =
    List.map
      (fun (b, j) ->
        J.Obj
          [
            ("backend", J.Num (float_of_int b));
            ("label", J.Str (label_of b j));
            ("up", J.Bool (Supervisor.is_up t.sup b));
            ( "pid",
              match Supervisor.pid t.sup b with
              | Some p -> J.Num (float_of_int p)
              | None -> J.Null );
            ("spawns", J.Num (float_of_int (Supervisor.spawns t.sup b)));
            ("failures", J.Num (float_of_int (Supervisor.failures t.sup b)));
            ("hops", hops_json b);
            ("stats", match j with Some j -> j | None -> J.Null);
          ])
      parts
  in
  (* Engine-shaped top level: `sufdec top` renders a fleet unchanged. *)
  J.Obj
    [
      ("fleet", J.Bool true);
      ("workers", J.Num (sum "workers"));
      ("submitted", J.Num (float_of_int t.submitted));
      ("completed", J.Num (float_of_int t.completed));
      ("shed", J.Num (float_of_int t.busy));
      ("errors", J.Num (float_of_int t.errors));
      ("redispatched", J.Num (float_of_int t.redispatched));
      ( "queue_depth",
        J.Num (sum "queue_depth" +. float_of_int (Hashtbl.length t.pending)) );
      ( "latency_ms",
        J.Obj
          [
            ("count", J.Num (float_of_int (Window.length t.lat)));
            ("p50", J.Num p50);
            ("p90", J.Num p90);
            ("p99", J.Num p99);
            ( "p99_rid",
              J.Str
                (match Window.exemplar t.lat 0.99 with
                | Some (_, rid) -> rid
                | None -> "") );
          ] );
      ("exemplars", J.Arr exemplars);
      ("lanes", J.Arr lanes);
      ( "cache",
        J.Obj
          [
            ("hits", J.Num (sum_cache "hits"));
            ("misses", J.Num (sum_cache "misses"));
            ("joins", J.Num (sum_cache "joins"));
            ("evictions", J.Num (sum_cache "evictions"));
            ("size", J.Num (sum_cache "size"));
            ("capacity", J.Num (sum_cache "capacity"));
          ] );
      ("disk_cache", disk);
      ("uptime_s", J.Num (Unix.gettimeofday () -. t.started_at));
      ("backends", J.Arr backend_detail);
    ]

(* Concatenate exposition documents, keeping the first copy of each
   metadata line. Backends expose distinct [backend="i"] labels (the
   router itself exposes [backend="router"]), so the sample lines never
   collide; only # HELP / # TYPE lines repeat, and Prometheus requires
   those once per family. *)
let fan_merge_metrics fan =
  let bodies =
    (("router", Prom.current ())
    :: (List.sort compare fan.fan_parts
       |> List.filter_map (fun (b, r) ->
              match r with
              | Some (Protocol.Metrics (_, body)) ->
                Some (string_of_int b, body)
              | _ -> None)))
  in
  let seen_meta = Hashtbl.create 64 in
  let buf = Buffer.create 4096 in
  List.iter
    (fun (_, body) ->
      String.split_on_char '\n' body
      |> List.iter (fun line ->
             if line = "" then ()
             else if String.length line > 0 && line.[0] = '#' then begin
               if not (Hashtbl.mem seen_meta line) then begin
                 Hashtbl.add seen_meta line ();
                 Buffer.add_string buf line;
                 Buffer.add_char buf '\n'
               end
             end
             else begin
               Buffer.add_string buf line;
               Buffer.add_char buf '\n'
             end))
    bodies;
  Buffer.contents buf

let fan_merge_dump fan =
  let parts =
    List.sort compare fan.fan_parts
    |> List.map (fun (b, r) ->
           let flight =
             match r with
             | Some (Protocol.Dump (_, body)) -> (
               match Json.parse body with Ok j -> j | Error _ -> Json.Str body)
             | _ -> Json.Null
           in
           Json.Obj
             [ ("backend", Json.Num (float_of_int b)); ("flight", flight) ])
  in
  (* The router's own flight ring rides along: it holds the hop spans
     (hop.router_parse, hop.router_queue, hop.wire, fleet.request) that
     the per-process lanes of an assembled trace are built from. *)
  Json.to_string
    (Json.Obj
       [
         ("schema", Json.Str "sepsat-fleet-dump-1");
         ("router", Flight.to_json ());
         ("backends", Json.Arr parts);
       ])

let finish_fan t fan =
  let reply =
    match fan.fan_op with
    | `Stats -> Protocol.Stats (fan.fan_orig_id, fan_merge_stats t fan)
    | `Metrics -> Protocol.Metrics (fan.fan_orig_id, fan_merge_metrics fan)
    | `Dump -> Protocol.Dump (fan.fan_orig_id, fan_merge_dump fan)
  in
  reply_client t fan.fan_client reply

let fan_arrived t fan b reply =
  fan.fan_parts <- (b, reply) :: fan.fan_parts;
  fan.fan_waiting <- fan.fan_waiting - 1;
  if fan.fan_waiting <= 0 then finish_fan t fan

let start_fan t cl_id orig_id op =
  let live = live_backends t in
  let fan =
    {
      fan_client = cl_id;
      fan_orig_id = orig_id;
      fan_op = op;
      fan_waiting = List.length live;
      fan_parts = [];
    }
  in
  if live = [] then finish_fan t fan
  else
    List.iter
      (fun b ->
        let wire = mint_wire t in
        Hashtbl.replace t.pending wire { pd_backend = b; pd_kind = K_fan fan };
        let req =
          match op with
          | `Stats -> Protocol.Stats_req wire
          | `Metrics -> Protocol.Metrics_req wire
          | `Dump -> Protocol.Dump_req wire
        in
        match t.bconns.(b) with
        | Some conn -> Lineconn.enqueue conn (Protocol.request_to_line req)
        | None -> fan_arrived t fan b None)
      live

(* -- Backend loss ----------------------------------------------------------- *)

let backend_lost t i =
  if t.bconns.(i) <> None || Supervisor.is_up t.sup i then
    Obs.log Obs.Info "fleet: backend %d connection lost" i;
  disconnect_backend t i;
  Supervisor.note_lost t.sup i;
  let orphaned =
    Hashtbl.fold
      (fun wire pd acc -> if pd.pd_backend = i then (wire, pd) :: acc else acc)
      t.pending []
  in
  List.iter
    (fun (wire, pd) ->
      match pd.pd_kind with
      | K_solve ps -> redispatch t wire ps
      | K_fan fan ->
        Hashtbl.remove t.pending wire;
        fan_arrived t fan i None)
    orphaned

(* -- Request handling ------------------------------------------------------- *)

let parse_formula lang text =
  let ctx = Ast.create_ctx () in
  match lang with
  | Protocol.Suf -> (
    match Parse.formula ctx text with
    | f -> Ok f
    | exception Parse.Error msg -> Error ("parse error: " ^ msg))
  | Protocol.Smt -> (
    match Smtlib.script ctx text with
    | script -> Ok (Smtlib.goal ctx script)
    | exception Smtlib.Error msg -> Error ("smt-lib error: " ^ msg))

let handle_solve t cl_id (rq : Protocol.solve_req) =
  Metrics.incr (m_requests ());
  if t.draining then begin
    t.busy <- t.busy + 1;
    reply_client t cl_id (Protocol.Busy rq.Protocol.sq_id)
  end
  else begin
    let recv_wall, recv_mono = Clock.pair () in
    let t0 = recv_wall in
    (* Trace context for the request's whole fleet crossing: adopt the
       client's context when it sent one (a client that is itself a hop),
       mint a fleet-unique rid otherwise. Installed once in ps_rq, it
       survives re-dispatch untouched — whichever shard the solve lands
       on adopts the same rid. *)
    let rid, path =
      match rq.Protocol.sq_trace with
      | Some tc -> (tc.Protocol.tc_rid, tc.Protocol.tc_path @ [ "router" ])
      | None -> (mint_rid t, [ "router" ])
    in
    let rq =
      { rq with Protocol.sq_trace = Some { Protocol.tc_rid = rid; tc_path = path } }
    in
    t.submitted <- t.submitted + 1;
    match parse_formula rq.Protocol.sq_lang rq.Protocol.sq_text with
    | Error msg ->
      t.errors <- t.errors + 1;
      Metrics.incr (m_errors ());
      reply_client t cl_id (Protocol.Error (rq.Protocol.sq_id, msg))
    | Ok formula -> (
      let parsed_mono = Clock.mono_now () in
      let parse_ms = (parsed_mono -. recv_mono) *. 1000. in
      Obs.record ~rid ~dur_ms:parse_ms Obs.Span "hop.router_parse";
      Metrics.observe ~rid (m_hop_parse ()) (parse_ms /. 1000.);
      let digest = Ast.digest formula in
      let key = digest ^ "|" ^ Protocol.method_to_wire rq.Protocol.sq_method in
      match Option.bind t.store (fun s -> Disk_cache.find s key) with
      | Some e ->
        (* Persistent hit: answered by the router, no backend involved —
           the restart-surviving layer of the cache hierarchy. The reply
           trace says so: served_by "cache" with the lookup as its own
           hop, so cached answers stay distinguishable from shard-solved
           ones in traces and exemplars. *)
        Metrics.incr (m_disk_hits ());
        t.completed <- t.completed + 1;
        let send_wall, send_mono = Clock.pair () in
        let ms = (send_mono -. recv_mono) *. 1000. in
        Window.add ~rid t.lat ms;
        Obs.record ~rid ~dur_ms:ms
          ~data:[ ("served_by", "cache") ]
          Obs.Span "fleet.request";
        reply_client t cl_id
          (Protocol.Ok_solve
             {
               Protocol.sv_id = rq.Protocol.sq_id;
               sv_verdict = e.Disk_cache.d_verdict;
               sv_origin = Protocol.Cache_hit;
               sv_digest = digest;
               sv_witness = e.Disk_cache.d_witness;
               sv_solve_ms = e.Disk_cache.d_solve_ms;
               sv_time_ms = ms;
               sv_trace =
                 Some
                   {
                     Protocol.rt_rid = rid;
                     rt_served_by = "cache";
                     rt_hops =
                       [
                         ("router.parse", parse_ms);
                         ("router.cache", Float.max 0. (ms -. parse_ms));
                       ];
                     rt_recv_wall = recv_wall;
                     rt_recv_mono = recv_mono;
                     rt_send_wall = send_wall;
                     rt_send_mono = send_mono;
                   };
             })
      | None ->
        dispatch t
          {
            ps_client = cl_id;
            ps_orig_id = rq.Protocol.sq_id;
            ps_digest = digest;
            ps_key = key;
            ps_rq = rq;
            ps_tried = [];
            ps_t0 = t0;
            ps_rid = rid;
            ps_recv_wall = recv_wall;
            ps_recv_mono = recv_mono;
            ps_parsed_mono = parsed_mono;
            ps_sent_mono = parsed_mono;
          })
  end

let begin_drain t requester =
  if not t.draining then begin
    t.draining <- true;
    t.drain_requester <- requester;
    Obs.log Obs.Info "fleet: draining (%d in flight)" (Hashtbl.length t.pending)
  end

let handle_client_line t cl_id line =
  match Protocol.request_of_line line with
  | Error msg ->
    reply_client t cl_id (Protocol.Error ("", "bad request: " ^ msg))
  | Ok (Protocol.Ping id) -> reply_client t cl_id (Protocol.Pong id)
  | Ok (Protocol.Shutdown id) -> begin_drain t (Some (cl_id, id))
  | Ok (Protocol.Stats_req id) -> start_fan t cl_id id `Stats
  | Ok (Protocol.Metrics_req id) -> start_fan t cl_id id `Metrics
  | Ok (Protocol.Dump_req id) -> start_fan t cl_id id `Dump
  | Ok (Protocol.Warm w) -> (
    (* Operational pre-seeding: a client may feed verdicts straight into
       the persistent cache (and through it, future backend warms). *)
    match t.store with
    | None ->
      reply_client t cl_id
        (Protocol.Error (w.Protocol.wr_id, "fleet has no persistent cache"))
    | Some store ->
      Disk_cache.put store w.Protocol.wr_key
        {
          Disk_cache.d_verdict = w.Protocol.wr_verdict;
          d_witness = w.Protocol.wr_witness;
          d_solve_ms = w.Protocol.wr_solve_ms;
        };
      reply_client t cl_id (Protocol.Warmed w.Protocol.wr_id))
  | Ok (Protocol.Solve rq) -> handle_solve t cl_id rq

let handle_backend_reply t b reply =
  let wire = Protocol.reply_id reply in
  match Hashtbl.find_opt t.pending wire with
  | None -> ()  (* warm acknowledgements and post-redispatch stragglers *)
  | Some pd -> (
    match pd.pd_kind with
    | K_fan fan ->
      Hashtbl.remove t.pending wire;
      fan_arrived t fan b (Some reply)
    | K_solve ps -> (
      match reply with
      | Protocol.Busy _ ->
        (* That backend shed; walk the failover order before giving the
           busy to the client. *)
        redispatch t wire ps
      | Protocol.Ok_solve s ->
        Hashtbl.remove t.pending wire;
        (match (t.store, s.Protocol.sv_verdict) with
        | Some store, (Protocol.Valid | Protocol.Invalid) ->
          Disk_cache.put store ps.ps_key
            {
              Disk_cache.d_verdict = s.Protocol.sv_verdict;
              d_witness = s.Protocol.sv_witness;
              d_solve_ms = s.Protocol.sv_solve_ms;
            };
          t.disk_writes <- t.disk_writes + 1
        | _ -> ());
        t.completed <- t.completed + 1;
        let send_wall, send_mono = Clock.pair () in
        let ms = (send_mono -. ps.ps_recv_mono) *. 1000. in
        Window.add ~rid:ps.ps_rid t.lat ms;
        (* Six-hop decomposition. Every subtraction below pairs mono
           readings from a single process — the shard's residency comes
           from its own recv/send anchors in the reply trace — so the
           breakdown is immune to router/shard wall-clock skew. The
           final [reply] hop is the remainder, so the six sum to the
           router-observed end-to-end time by construction (up to the
           max-0 clamps on pathological clock behaviour). *)
        let parse_ms = (ps.ps_parsed_mono -. ps.ps_recv_mono) *. 1000. in
        let queue_ms = (ps.ps_sent_mono -. ps.ps_parsed_mono) *. 1000. in
        let rtt_ms = (send_mono -. ps.ps_sent_mono) *. 1000. in
        let shard_queue_ms, shard_solve_ms, shard_res_ms =
          match s.Protocol.sv_trace with
          | Some st ->
            let hop name =
              Option.value ~default:0.
                (List.assoc_opt name st.Protocol.rt_hops)
            in
            ( hop "shard.queue",
              hop "shard.solve",
              (st.Protocol.rt_send_mono -. st.Protocol.rt_recv_mono) *. 1000.
            )
          | None ->
            (* Trace-less backend (version skew): charge its reported
               engine time as solve and fold the rest into wire. *)
            (0., s.Protocol.sv_time_ms, s.Protocol.sv_time_ms)
        in
        let wire_ms = Float.max 0. (rtt_ms -. shard_res_ms) in
        let reply_ms =
          Float.max 0.
            (ms -. parse_ms -. queue_ms -. wire_ms -. shard_queue_ms
           -. shard_solve_ms)
        in
        let served_by =
          match s.Protocol.sv_trace with
          | Some st when st.Protocol.rt_served_by <> "" ->
            st.Protocol.rt_served_by
          | _ -> string_of_int b
        in
        let rid = ps.ps_rid in
        Metrics.observe ~rid (m_hop_queue ()) (queue_ms /. 1000.);
        Metrics.observe ~rid (m_hop_wire ()) (wire_ms /. 1000.);
        Metrics.observe ~rid (m_hop_shard_queue ())
          (shard_queue_ms /. 1000.);
        Metrics.observe ~rid (m_hop_solve ())
          (shard_solve_ms /. 1000.);
        Metrics.observe ~rid (m_hop_reply ()) (reply_ms /. 1000.);
        (if b >= 0 && b < Array.length t.hops then
           let a = t.hops.(b) in
           a.ha_count <- a.ha_count + 1;
           a.ha_parse <- a.ha_parse +. parse_ms;
           a.ha_queue <- a.ha_queue +. queue_ms;
           a.ha_wire <- a.ha_wire +. wire_ms;
           a.ha_shard_queue <- a.ha_shard_queue +. shard_queue_ms;
           a.ha_solve <- a.ha_solve +. shard_solve_ms;
           a.ha_reply <- a.ha_reply +. reply_ms);
        Obs.record ~rid ~dur_ms:wire_ms
          ~data:[ ("backend", string_of_int b) ]
          Obs.Span "hop.wire";
        Obs.record ~rid ~dur_ms:ms
          ~data:[ ("served_by", served_by) ]
          Obs.Span "fleet.request";
        let trace =
          {
            Protocol.rt_rid = rid;
            rt_served_by = served_by;
            rt_hops =
              [
                ("router.parse", parse_ms);
                ("router.queue", queue_ms);
                ("wire", wire_ms);
                ("shard.queue", shard_queue_ms);
                ("shard.solve", shard_solve_ms);
                ("reply", reply_ms);
              ];
            rt_recv_wall = ps.ps_recv_wall;
            rt_recv_mono = ps.ps_recv_mono;
            rt_send_wall = send_wall;
            rt_send_mono = send_mono;
          }
        in
        reply_client t ps.ps_client
          (Protocol.Ok_solve
             {
               s with
               Protocol.sv_id = ps.ps_orig_id;
               sv_time_ms = ms;
               sv_trace = Some trace;
             })
      | Protocol.Error (_, msg) ->
        Hashtbl.remove t.pending wire;
        t.errors <- t.errors + 1;
        Metrics.incr (m_errors ());
        reply_client t ps.ps_client (Protocol.Error (ps.ps_orig_id, msg))
      | Protocol.Pong _ | Protocol.Stats _ | Protocol.Metrics _
      | Protocol.Dump _ | Protocol.Bye _ | Protocol.Warmed _ ->
        Hashtbl.remove t.pending wire))

(* -- The loop --------------------------------------------------------------- *)

let rebuild_interest t =
  Hashtbl.iter
    (fun fd who ->
      let conn =
        match who with
        | `Client id ->
          Option.map (fun c -> c.cl_conn) (Hashtbl.find_opt t.clients id)
        | `Backend i -> t.bconns.(i)
      in
      match conn with
      | Some c -> Poll.set t.poll fd ~read:true ~write:(Lineconn.wants_write c)
      | None -> Poll.remove t.poll fd)
    t.by_fd;
  Poll.set t.poll t.listen_fd ~read:(not t.draining) ~write:false

(* Give outbound queues a bounded window to drain: the shutdown op to the
   backends before the supervisor reaps them, then the bye to the clients. *)
let flush_bounded conns seconds =
  let deadline = Unix.gettimeofday () +. seconds in
  let flush () = List.iter (fun c -> ignore (Lineconn.on_writable c)) conns in
  flush ();
  while
    List.exists Lineconn.wants_write conns && Unix.gettimeofday () < deadline
  do
    Unix.sleepf 0.01;
    flush ()
  done

let shutdown_backends t =
  let live = List.filter_map Fun.id (Array.to_list t.bconns) in
  List.iter
    (fun c ->
      Lineconn.enqueue c (Protocol.request_to_line (Protocol.Shutdown "fleet")))
    live;
  flush_bounded live 0.5;
  Supervisor.stop t.sup;
  Array.iteri (fun i _ -> disconnect_backend t i) t.bconns

let finish_shutdown t =
  shutdown_backends t;
  Option.iter Disk_cache.close t.store;
  (match t.drain_requester with
  | Some (cl_id, id) -> reply_client t cl_id (Protocol.Bye id)
  | None -> ());
  flush_bounded
    (Hashtbl.fold (fun _ cl acc -> cl.cl_conn :: acc) t.clients [])
    2.;
  Hashtbl.iter (fun _ cl -> Lineconn.close cl.cl_conn) t.clients;
  Hashtbl.reset t.clients;
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  (try Sys.remove t.cfg.rc_socket with Sys_error _ -> ());
  t.finished <- true;
  Obs.log Obs.Info "fleet: shut down cleanly"

let handle_ready t (r : Poll.ready) =
  if r.Poll.r_fd = t.listen_fd then begin
    if r.Poll.r_readable then accept_clients t
  end
  else
    match Hashtbl.find_opt t.by_fd r.Poll.r_fd with
    | None -> Poll.remove t.poll r.Poll.r_fd
    | Some (`Client cl_id) -> (
      let conn =
        Option.map (fun c -> c.cl_conn) (Hashtbl.find_opt t.clients cl_id)
      in
      match conn with
      | None -> ()
      | Some conn ->
        (if r.Poll.r_writable then
           match Lineconn.on_writable conn with
           | `Closed -> drop_client t cl_id
           | `Ok -> ());
        if r.Poll.r_readable && Hashtbl.mem t.clients cl_id then (
          match Lineconn.on_readable conn with
          | `Closed -> drop_client t cl_id
          | `Nothing -> ()
          | `Lines lines ->
            List.iter (fun l -> handle_client_line t cl_id l) lines
          | `Overlong lines ->
            List.iter (fun l -> handle_client_line t cl_id l) lines;
            reply_client t cl_id
              (Protocol.Error
                 ("", Printf.sprintf "bad request: line longer than %d bytes"
                        Lineconn.max_line));
            ignore (Lineconn.on_writable conn);
            drop_client t cl_id))
    | Some (`Backend i) -> (
      match t.bconns.(i) with
      | None -> ()
      | Some conn ->
        (if r.Poll.r_writable then
           match Lineconn.on_writable conn with
           | `Closed -> backend_lost t i
           | `Ok -> ());
        if t.bconns.(i) <> None then
          if r.Poll.r_readable then (
            let replies lines =
              List.iter
                (fun l ->
                  match Protocol.reply_of_line l with
                  | Ok reply -> handle_backend_reply t i reply
                  | Error _ -> ())
                lines
            in
            match Lineconn.on_readable conn with
            | `Closed -> backend_lost t i
            | `Nothing -> ()
            | `Lines lines -> replies lines
            | `Overlong lines ->
              replies lines;
              backend_lost t i))

let request_stop () = Atomic.set stop_flag true

let run cfg sup =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Atomic.set stop_flag false;
  let handle_term =
    Sys.Signal_handle (fun _ -> Atomic.set stop_flag true)
  in
  let prev_term = (try Some (Sys.signal Sys.sigterm handle_term) with _ -> None) in
  let prev_int = (try Some (Sys.signal Sys.sigint handle_term) with _ -> None) in
  (* The router is an observability citizen like any shard: its store
     holds the router-side hop spans an assembled cross-process trace
     needs, its counters move, and its metric series carry the label the
     metrics merge has always documented. *)
  if not (Obs.enabled ()) then Obs.enable ~capacity:4096 ();
  if Prom.const_label "backend" = None then
    Prom.set_const_labels [ ("backend", "router") ];
  let store = Option.map (fun path -> Disk_cache.open_ ~path) cfg.rc_cache_path in
  (match store with
  | Some s ->
    let st = Disk_cache.stats s in
    Obs.log Obs.Info "fleet: persistent cache %s: %d verdicts loaded"
      (Option.get cfg.rc_cache_path) st.Disk_cache.s_loaded
  | None -> ());
  (try Sys.remove cfg.rc_socket with Sys_error _ -> ());
  let listen_fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX cfg.rc_socket);
  Unix.listen listen_fd 128;
  Unix.set_nonblock listen_fd;
  let t =
    {
      cfg;
      sup;
      store;
      ring = Ring.create (List.init (Supervisor.n sup) Fun.id);
      poll = Poll.create ();
      listen_fd;
      clients = Hashtbl.create 64;
      by_fd = Hashtbl.create 64;
      bconns = Array.make (Supervisor.n sup) None;
      pending = Hashtbl.create 64;
      next_client = 0;
      next_wire = 0;
      next_rid = 0;
      hops = Array.init (Supervisor.n sup) (fun _ -> fresh_hop_acc ());
      lat = Window.create ();
      submitted = 0;
      completed = 0;
      busy = 0;
      errors = 0;
      redispatched = 0;
      disk_writes = 0;
      draining = false;
      drain_requester = None;
      finished = false;
      started_at = Unix.gettimeofday ();
    }
  in
  Obs.log Obs.Info "fleet: router listening on %s (%d backends)" cfg.rc_socket
    (Supervisor.n sup);
  while not t.finished do
    (* Supervision round: connect-and-warm what came up, re-dispatch what
       went down, reconnect a live backend whose connection we lost. *)
    List.iter
      (function
        | Supervisor.Became_up i ->
          if connect_backend t i then warm_backend t i
        | Supervisor.Went_down i -> backend_lost t i)
      (Supervisor.tick t.sup);
    for i = 0 to Supervisor.n t.sup - 1 do
      if Supervisor.is_up t.sup i && t.bconns.(i) = None then
        if connect_backend t i then warm_backend t i
    done;
    if Atomic.get stop_flag then begin_drain t None;
    if t.draining && Hashtbl.length t.pending = 0 then finish_shutdown t
    else begin
      rebuild_interest t;
      let ready = Poll.wait t.poll ~timeout_s:cfg.rc_poll_s in
      List.iter (handle_ready t) ready;
      (* Opportunistic flush: replies enqueued this round go out now
         rather than one poll interval later. *)
      Hashtbl.iter
        (fun _ cl ->
          if Lineconn.wants_write cl.cl_conn then
            ignore (Lineconn.on_writable cl.cl_conn))
        t.clients;
      Array.iteri
        (fun i conn ->
          match conn with
          | Some c when Lineconn.wants_write c -> (
            match Lineconn.on_writable c with
            | `Closed -> backend_lost t i
            | `Ok -> ())
          | _ -> ())
        t.bconns
    end
  done;
  (match prev_term with Some b -> (try Sys.set_signal Sys.sigterm b with _ -> ()) | None -> ());
  (match prev_int with Some b -> (try Sys.set_signal Sys.sigint b with _ -> ()) | None -> ())
