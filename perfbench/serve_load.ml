(* The serve workload: one client process with two connections drives one
   `sufdec serve --workers 1` over a Unix socket, closed loop. *)

module Protocol = Sepsat_serve.Protocol
module Session = Sepsat_serve.Session
module Spans = Report.Spans
open Inputs

let now = Report.now

let requests_per_conn = 750
let conns = 2

(* The van der Corput sequence in base 2: 0, 1/2, 1/4, 3/4, 1/8, ... *)
let van_der_corput j =
  let rec go j base acc =
    if j = 0 then acc
    else go (j / 2) (base /. 2.) (acc +. (base *. float (j land 1)))
  in
  go j 0.5 0.

(* One connection's request stream, as indices into the working set [mine],
   given in size order. Texts are introduced in a low-discrepancy order of
   size rank (a van der Corput sequence), so every prefix of the stream
   mixes small and large texts, and the same size ranks are introduced
   early, and so drawn most, whatever the seed; each introduction is a
   miss, spaced evenly, and every other request is a seeded uniform draw
   over the texts this connection has already sent. No request can join an
   in-flight solve, so hit and miss counts are fixed by construction. *)
let stream rng (mine : int array) =
  let k = Array.length mine in
  let taken = Array.make k false in
  let intro = ref [] and j = ref 0 and found = ref 0 in
  while !found < k do
    let rank = min (k - 1) (int_of_float (van_der_corput !j *. float k)) in
    (* The sequence is dense, so a taken rank is skipped, not probed. *)
    if not taken.(rank) then begin
      taken.(rank) <- true;
      incr found;
      intro := mine.(rank) :: !intro
    end;
    incr j
  done;
  let intro = Array.of_list (List.rev !intro) in
  let n = requests_per_conn in
  let introduced = ref 0 in
  Array.init n (fun pos ->
      if !introduced < k && pos >= !introduced * n / k then begin
        incr introduced;
        intro.(!introduced - 1)
      end
      else intro.(Random.State.int rng !introduced))

let streams ~seed ~stream:s (texts : item array) =
  let rng = Random.State.make [| seed; s; 0x57 |] in
  let by_size = Array.init (Array.length texts) Fun.id in
  Array.stable_sort
    (fun a b ->
      compare (String.length texts.(a).text) (String.length texts.(b).text))
    by_size;
  Array.init conns (fun c ->
      let mine =
        Array.of_list
          (List.filteri (fun i _ -> i mod conns = c) (Array.to_list by_size))
      in
      stream rng mine)

(* A request's outcome as the client saw it. *)
type sample = {
  sent : float;  (** wall clock when the request was sent *)
  rtt : float;  (** seconds, client-observed *)
  request : Protocol.request;
  reply : Protocol.reply;
}

(* One stream against one fresh server. *)
type stream_run = {
  setup : float;  (** spawn until the first ping answers, seconds *)
  wall : float;  (** first request sent until last reply, seconds *)
  peak_mb : float;  (** the server's VmHWM before shutdown *)
  samples : sample array array;  (** per connection, in stream order *)
}

type server = { pid : int; dir : string; log : Unix.file_descr }

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* Spawns the server and connects with a tight retry until the first ping
   answers; returns the server, the connected sessions and the set-up time. *)
let start ~sufdec ~out =
  let dir = Filename.concat out (Printf.sprintf "srv-%d" (Unix.getpid ())) in
  rm_rf dir;
  Unix.mkdir dir 0o700;
  let socket = Filename.concat dir "s.sock" in
  let log =
    Unix.openfile (Filename.concat dir "server.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = now () in
  let pid =
    Unix.create_process sufdec
      [| sufdec; "serve"; "--socket"; socket; "--workers"; "1";
         "--flight-dir"; dir |]
      null log log
  in
  Unix.close null;
  let srv = { pid; dir; log } in
  let kill () =
    (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
    (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
    Unix.close log
  in
  let rec connect () =
    match Session.connect socket with
    | s -> s
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
      if now () -. t0 > 20. then failwith "server did not come up";
      Unix.sleepf 0.0005;
      connect ()
  in
  match
    let first = connect () in
    if not (Session.ping first) then failwith "server did not answer ping";
    let setup = now () -. t0 in
    let rest = List.init (conns - 1) (fun _ -> Session.connect socket) in
    (first :: rest, setup)
  with
  | sessions, setup -> (srv, sessions, setup)
  | exception e ->
    kill ();
    raise e

(* Reads the server's peak RSS, asks it to shut down, asserts the bye and
   reaps it; returns (peak MB, clean exit). *)
let stop srv sessions =
  let peak = Report.vm_hwm_mb (string_of_int srv.pid) in
  let first, rest =
    match sessions with s :: rest -> (s, rest) | [] -> assert false
  in
  List.iter Session.close rest;
  let bye =
    match Session.rpc first (Protocol.Shutdown "bye") with
    | Protocol.Bye _ -> true
    | _ -> false
  in
  Session.close first;
  let deadline = now () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] srv.pid with
    | 0, _ when now () < deadline ->
      Unix.sleepf 0.005;
      reap ()
    | 0, _ ->
      Unix.kill srv.pid Sys.sigkill;
      ignore (Unix.waitpid [] srv.pid);
      false
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  let exited = reap () in
  Unix.close srv.log;
  let orphan = Sys.file_exists (Printf.sprintf "/proc/%d" srv.pid) in
  if bye && exited && not orphan then rm_rf srv.dir;
  (peak, bye && exited && not orphan)

(* Judges every reply: a first request must be solved, a repeat answered
   from the cache, every verdict must match the known answer. *)
let judge tally (texts : item array) streams samples =
  Array.iteri
    (fun c s ->
      let seen = Hashtbl.create 64 in
      Array.iteri
        (fun pos ti ->
          let it = texts.(ti) in
          let first = not (Hashtbl.mem seen ti) in
          Hashtbl.replace seen ti ();
          tally.Report.attempted <- tally.Report.attempted + 1;
          match samples.(c).(pos).reply with
          | Protocol.Ok_solve sv -> (
            match (sv.Protocol.sv_verdict, sv.Protocol.sv_origin) with
            | Protocol.Unknown why, _ ->
              Report.fail tally it.name ("unknown: " ^ why)
            | v, _ when (v = Protocol.Valid) <> it.valid ->
              Report.fail ~wrong:true tally it.name
                ("wrong verdict " ^ Protocol.verdict_to_string v)
            | _, Protocol.Solved when not first ->
              Report.fail tally it.name "repeat request was solved again"
            | _, (Protocol.Cache_hit | Protocol.Joined) when first ->
              Report.fail ~wrong:true tally it.name
                "first request hit the cache"
            | _ -> ())
          | Protocol.Busy _ -> Report.fail tally it.name "busy"
          | Protocol.Error (_, why) ->
            Report.fail tally it.name ("error: " ^ why)
          | _ -> Report.fail ~wrong:true tally it.name "unexpected reply")
        s)
    streams

(* Drives one full stream against a fresh server and judges it. [trace]
   mints a trace context per request, so replies carry the server's hop
   breakdown. *)
let run_stream tally ~sufdec ~out ~trace (texts : item array) streams =
  let srv, sessions, setup = start ~sufdec ~out in
  let drive c session =
    Array.mapi
      (fun pos ti ->
        let it = texts.(ti) in
        let id = Printf.sprintf "%d.%d" c pos in
        let req =
          Protocol.Solve
            {
              Protocol.sq_id = id;
              sq_lang = Protocol.Suf;
              sq_text = it.text;
              sq_method = it.method_;
              sq_timeout_s = None;
              sq_trace =
                (if trace then
                   Some
                     { Protocol.tc_rid = "bench-" ^ id; tc_path = [ "client" ] }
                 else None);
            }
        in
        let t0 = now () in
        let reply =
          try Session.rpc session req
          with Sys_error e | Failure e -> Protocol.Error (id, e)
        in
        { sent = t0; rtt = now () -. t0; request = req; reply })
      streams.(c)
  in
  let results = Array.make (Array.length streams) [||] in
  let t0 = now () in
  let threads =
    List.mapi
      (fun c s -> Thread.create (fun () -> results.(c) <- drive c s) ())
      sessions
  in
  List.iter Thread.join threads;
  let wall = now () -. t0 in
  let peak_mb, clean = stop srv sessions in
  judge tally texts streams results;
  if not clean then begin
    tally.Report.correct <- false;
    Report.fail tally "server" "no bye, unclean exit or orphan process"
  end;
  { setup; wall; peak_mb; samples = results }

let rtts_ms r =
  List.concat_map
    (fun s -> Array.to_list (Array.map (fun x -> x.rtt *. 1000.) s))
    (Array.to_list r.samples)

(* A spawn, first ping and shutdown with no stream: one more set-up
   sample. *)
let setup_cycle tally ~sufdec ~out =
  let srv, sessions, setup = start ~sufdec ~out in
  let _, clean = stop srv sessions in
  if not clean then begin
    tally.Report.correct <- false;
    Report.fail tally "server" "no bye, unclean exit or orphan process"
  end;
  setup

(* Untraced: [streams_per_run] streams, each on a fresh server with a fresh
   working set derived from the seed and the stream's index, so every run
   sends the same requests whatever its speed; pooling the streams averages
   over the instances' costs. [setup_cycles_per_stream] bare spawn cycles
   run before each stream, so set-up time is a median over many spawns
   spread through the run. [seconds] is only a safety ceiling: a run that
   takes four times as long stops early and says so. *)
let streams_per_run = 6
let setup_cycles_per_stream = 2
let probes_per_stream = 8

let run ~sufdec ~out ~seconds ~seed =
  let tally = Report.tally () in
  let start = now () in
  let rec loop stream setups acc =
    if stream = streams_per_run then (setups, acc)
    else if now () -. start > 4. *. seconds then begin
      Printf.eprintf "stopped after %d of %d streams: over %.0f s\n" stream
        streams_per_run (4. *. seconds);
      (setups, acc)
    end
    else
      let cycles =
        List.init setup_cycles_per_stream (fun _ ->
            setup_cycle tally ~sufdec ~out)
      in
      let texts = Inputs.serve_texts ~seed ~stream in
      let streams = streams ~seed ~stream texts in
      for _ = 1 to probes_per_stream do Report.Host.probe () done;
      let r = run_stream tally ~sufdec ~out ~trace:false texts streams in
      loop (stream + 1) ((r.setup :: cycles) @ setups) (r :: acc)
  in
  let setups, runs = loop 0 [] [] in
  let lat = List.concat_map rtts_ms runs in
  let beyond = List.length lat / 100 in
  Printf.eprintf "streams=%d requests=%d spawns=%d samples beyond p99=%d\n"
    (List.length runs) (List.length lat) (List.length setups) beyond;
  Report.raw_and_scaled tally
    [
      ("setup_s", "s", Report.median setups);
      ("wall_s", "s", Report.sum (List.map (fun r -> r.wall) runs));
      ("geomean_ms", "ms", Report.geomean lat);
      ("latency_ms.p50", "ms", Report.median lat);
      ("latency_ms.p99", "ms", Report.quantile 0.99 lat);
    ]
    [
      ( "peak_rss_mb", "MB",
        Report.median (List.map (fun r -> r.peak_mb) runs) );
    ]

let hop name (sv : Protocol.solved) =
  match sv.Protocol.sv_trace with
  | Some tr -> List.assoc_opt name tr.Protocol.rt_hops
  | None -> None

(* Wire codec cost per request, in microseconds: the request encoded and
   decoded, the reply encoded. *)
let codec_us requests_and_replies =
  let n = List.length requests_and_replies in
  let t0 = now () in
  List.iter
    (fun (req, reply) ->
      match Protocol.request_of_line (Protocol.request_to_line req) with
      | Ok _ -> ignore (Protocol.reply_to_line reply)
      | Error e -> failwith ("codec replay: " ^ e))
    requests_and_replies;
  Report.ratio ((now () -. t0) *. 1e6) (float_of_int n)

(* Traced: one untraced and one traced stream (each on a fresh server), the
   codec replay, and the working set replayed layer by layer in-process. *)
let traced ~sufdec ~out ~seed =
  let texts = Inputs.serve_texts ~seed ~stream:0 in
  let streams = streams ~seed ~stream:0 texts in
  let tally = Report.tally () in
  let untraced = run_stream tally ~sufdec ~out ~trace:false texts streams in
  let traced = run_stream tally ~sufdec ~out ~trace:true texts streams in
  let all = List.concat_map Array.to_list (Array.to_list traced.samples) in
  let n = List.length all in
  List.iteri
    (fun i s ->
      match s.reply with
      | Protocol.Ok_solve sv ->
        let op = i + 1 in
        (* The server's hops are durations; they are laid out after the
           client-side share of the round trip (wire). *)
        let t0 = s.sent in
        let root = Spans.add ~op ~parent:0 "request" t0 (t0 +. s.rtt) in
        let q = Option.value (hop "shard.queue" sv) ~default:0. /. 1000. in
        let sol = Option.value (hop "shard.solve" sv) ~default:0. /. 1000. in
        let wire = t0 +. s.rtt -. (sv.Protocol.sv_time_ms /. 1000.) in
        ignore (Spans.add ~op ~parent:root "wire" t0 wire);
        ignore (Spans.add ~op ~parent:root "shard.queue" wire (wire +. q));
        ignore
          (Spans.add ~op ~parent:root
             (if sv.Protocol.sv_origin = Protocol.Solved then "shard.solve"
              else "shard.hit")
             (wire +. q) (wire +. q +. sol))
      | _ -> ())
    all;
  let ok =
    List.filter_map
      (fun s ->
        match s.reply with Protocol.Ok_solve sv -> Some (s, sv) | _ -> None)
      all
  in
  let ms_of f = List.map f ok in
  let rtt = ms_of (fun (s, _) -> s.rtt *. 1000.) in
  let queue =
    ms_of (fun (_, sv) -> Option.value (hop "shard.queue" sv) ~default:0.)
  in
  let solved =
    List.filter_map
      (fun (_, sv) ->
        if sv.Protocol.sv_origin = Protocol.Solved then hop "shard.solve" sv
        else None)
      ok
  in
  let hits =
    List.length
      (List.filter
         (fun (_, sv) -> sv.Protocol.sv_origin = Protocol.Cache_hit)
         ok)
  in
  let busy =
    List.length
      (List.filter
         (fun s -> match s.reply with Protocol.Busy _ -> true | _ -> false)
         all)
  in
  let codec = codec_us (List.map (fun s -> (s.request, s.reply)) all) in
  let ltally, layers = Offline.traced texts in
  Report.merge tally ltally;
  let fi = float_of_int in
  let serve_metrics =
    [
      ("serve.requests", "count", fi n);
      ("serve.beyond_p99", "count", fi (n / 100));
      ("serve.rtt_ms.p50", "ms", Report.median rtt);
      ("serve.rtt_ms.p99", "ms", Report.quantile 0.99 rtt);
      ( "serve.engine_ms.p50", "ms",
        Report.median (ms_of (fun (_, sv) -> sv.Protocol.sv_time_ms)) );
      ( "serve.wire_ms.p50", "ms",
        Report.median
          (ms_of (fun (s, sv) -> (s.rtt *. 1000.) -. sv.Protocol.sv_time_ms)) );
      ("serve.queue_ms.p50", "ms", Report.median queue);
      ("serve.queue_ms.p99", "ms", Report.quantile 0.99 queue);
      ("serve.solve_ms.p50", "ms", Report.median solved);
      ("serve.hit_ratio", "ratio", Report.ratio (fi hits) (fi n));
      ("serve.busy", "count", fi busy);
      ("serve.codec_us", "us", codec);
    ]
  in
  let layers =
    List.map
      (fun ((name, unit, _) as m) ->
        if name = "trace.overhead" then
          (name, unit, Report.ratio traced.wall untraced.wall)
        else m)
      layers
  in
  (tally, layers @ serve_metrics)
