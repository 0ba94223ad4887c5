module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Smtlib = Sepsat_suf.Smtlib
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict
module Brute = Sepsat_sep.Brute
module Deadline = Sepsat_util.Deadline
module Json = Sepsat_util.Json
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Log = Sepsat_obs.Log
module Window = Sepsat_obs.Window
module Flight = Sepsat_obs.Flight
module Trace_ctx = Sepsat_obs.Trace_ctx
module Progress = Sepsat_obs.Progress
module Clock = Sepsat_obs.Clock

type job = {
  jb_text : string;
  jb_lang : Protocol.lang;
  jb_method : Decide.method_;
  jb_timeout_s : float option;
  jb_id : string;
  jb_rid : string;
  jb_path : string list;  (* trace hops crossed upstream, outermost first *)
  jb_enq_mono : float;  (* Clock.mono_now at job creation = enqueue time *)
}

let job ?(lang = Protocol.Suf) ?(method_ = Decide.Hybrid_default) ?timeout_s
    ?(id = "") ?rid ?(path = []) text =
  {
    jb_text = text;
    jb_lang = lang;
    jb_method = method_;
    jb_timeout_s = timeout_s;
    jb_id = id;
    (* Client ids are echoes, not identities — they may repeat or be empty,
       so every job also gets a correlation id: the wire-carried fleet rid
       when the request arrived with a trace context, minted otherwise. *)
    jb_rid = (match rid with Some r -> r | None -> Log.mint "rq");
    jb_path = path;
    jb_enq_mono = Clock.mono_now ();
  }

type outcome = {
  o_verdict : Protocol.verdict;
  o_origin : Protocol.origin;
  o_digest : string;
  o_witness : string option;
  o_solve_ms : float;
  o_time_ms : float;
  o_queue_ms : float;
}

type reply = (outcome, string) result

type backend =
  method_:Decide.method_ ->
  deadline:Deadline.t ->
  Ast.ctx ->
  Ast.formula ->
  Verdict.t

let default_backend ~method_ ~deadline ctx formula =
  (Decide.decide ~method_ ~deadline ctx formula).Decide.verdict

(* What the cache stores per (digest, method) key. *)
type entry = {
  e_verdict : Protocol.verdict;
  e_witness : string option;
  e_solve_ms : float;
}

type work = job * (reply -> unit)

(* One live solver lane, fed by Progress ticks: which domain, solving for
   which request, and how hard it is working right now. *)
type lane = {
  ln_tid : int;
  ln_name : string;
  ln_rid : string;
  ln_conflicts : int;
  ln_rate : float;  (* conflicts/s over the last tick interval *)
  ln_elapsed_s : float;
  ln_updated : float;  (* wall clock of the tick; stale lanes are pruned *)
}

(* Ticks older than this are solver domains that moved on (pool joined,
   request finished) — drop them from the live view. *)
let lane_ttl_s = 15.

type t = {
  queue : work Bqueue.t;
  cache : entry Cache.t;
  lat : Window.t;  (* per-request wall times (ms), feeds rolling quantiles *)
  stop : bool Atomic.t;
  backend : backend;
  default_timeout_s : float;
  n_workers : int;
  submitted : int Atomic.t;
  completed : int Atomic.t;
  shed : int Atomic.t;
  errors : int Atomic.t;
  flight_dir : string option;  (* where deadline-expiry dumps land; None = off *)
  lanes : (int, lane) Hashtbl.t;
  lanes_mu : Mutex.t;
  mutable domains : unit Domain.t array;
  shutdown_mu : Mutex.t;
}

(* Metric handles are registered lazily so a process that never serves pays
   nothing. [create] flips [Metrics.set_always_on]: a server's operational
   counters must move in default runs, not only under --trace. *)
let m_requests = lazy (Metrics.counter "serve.requests")
let m_shed = lazy (Metrics.counter "serve.shed")
let m_errors = lazy (Metrics.counter "serve.errors")
let m_hits = lazy (Metrics.counter "serve.cache.hits")
let m_misses = lazy (Metrics.counter "serve.cache.misses")
let m_joins = lazy (Metrics.counter "serve.cache.joins")
let m_queue_depth = lazy (Metrics.gauge "serve.queue_depth")
let m_request_s = lazy (Metrics.histogram "serve.request_s")

let witness_digest = function
  | Verdict.Invalid a ->
    (* Canonical: sort both maps by name so the digest is a function of the
       assignment, not of decode order. *)
    let ints = List.sort compare a.Brute.ints in
    let bools = List.sort compare a.Brute.bools in
    let buf = Buffer.create 64 in
    List.iter
      (fun (n, v) -> Buffer.add_string buf (Printf.sprintf "%s=%d;" n v))
      ints;
    List.iter
      (fun (n, b) -> Buffer.add_string buf (Printf.sprintf "%s=%b;" n b))
      bools;
    Some (Digest.to_hex (Digest.string (Buffer.contents buf)))
  | Verdict.Valid | Verdict.Unknown _ -> None

let parse_job jb =
  let ctx = Ast.create_ctx () in
  match jb.jb_lang with
  | Protocol.Suf -> (
    match Parse.formula ctx jb.jb_text with
    | f -> Ok (ctx, f)
    | exception Parse.Error msg -> Error ("parse error: " ^ msg))
  | Protocol.Smt -> (
    match Smtlib.script ctx jb.jb_text with
    | script -> Ok (ctx, Smtlib.goal ctx script)
    | exception Smtlib.Error msg -> Error ("smt-lib error: " ^ msg))

let process t (jb : job) : reply =
  let t0 = Deadline.wall_now () in
  let queue_ms = (Clock.mono_now () -. jb.jb_enq_mono) *. 1000. in
  (* Every log line emitted anywhere below — including deep inside the
     pipeline — carries the request's correlation id, so one grep on the
     rid reconstructs the request's full path. The ambient Trace_ctx rid
     does the same for Obs spans and flight records: the request-root span
     and every descendant (parse, solve, portfolio lanes via the spawn
     handoff) is tagged with this rid. Installing a
     whole context (not just the rid) both adopts the upstream hop path of
     a fleet request and guarantees no span path leaks in from whatever
     ran on this worker before. *)
  Trace_ctx.with_ctx (Trace_ctx.make ~rid:jb.jb_rid ~path:jb.jb_path ())
  @@ fun () ->
  Flight.record ~dur_ms:queue_ms Flight.Span "hop.shard_queue";
  Log.with_fields [ ("rid", Log.S jb.jb_rid); ("id", Log.S jb.jb_id) ]
  @@ fun () ->
  Obs.span ~cat:"serve" "serve.request" (fun () ->
      Metrics.incr (Lazy.force m_requests);
      Log.event "serve.request"
        [
          ("lang", Log.S (Protocol.lang_to_string jb.jb_lang));
          ("method", Log.S (Protocol.method_to_wire jb.jb_method));
          ( "timeout_s",
            Log.F (Option.value jb.jb_timeout_s ~default:t.default_timeout_s)
          );
        ];
      match Obs.span ~cat:"serve" "serve.parse" (fun () -> parse_job jb) with
      | Error msg ->
        Atomic.incr t.errors;
        Metrics.incr (Lazy.force m_errors);
        let time_ms = (Deadline.wall_now () -. t0) *. 1000. in
        Window.add ~rid:jb.jb_rid t.lat time_ms;
        Log.event "serve.error"
          [ ("reason", Log.S msg); ("time_ms", Log.F time_ms) ];
        Error msg
      | Ok (ctx, formula) ->
        let digest = Ast.digest formula in
        let key = digest ^ "|" ^ Protocol.method_to_wire jb.jb_method in
        let compute () =
          let timeout =
            Option.value jb.jb_timeout_s ~default:t.default_timeout_s
          in
          let deadline =
            Deadline.with_stop (Deadline.after_wall timeout) t.stop
          in
          let ts = Deadline.wall_now () in
          let verdict =
            match
              Obs.span ~cat:"serve" "serve.solve" (fun () ->
                  t.backend ~method_:jb.jb_method ~deadline ctx formula)
            with
            | v -> v
            | exception Deadline.Timeout ->
              let why =
                if Deadline.interrupted deadline then "cancelled"
                else "timeout"
              in
              Log.event "serve.deadline"
                [ ("reason", Log.S why); ("budget_s", Log.F timeout) ];
              (* A blown per-request deadline is exactly the moment the
                 recent history matters: dump the flight recorder so the
                 wedged request's spans, logs and last progress snapshots
                 survive for post-mortem. *)
              (match t.flight_dir with
              | Some _ when why = "timeout" -> (
                match Flight.dump ~reason:("deadline-" ^ jb.jb_rid) () with
                | path -> Log.event "serve.flight_dump" [ ("path", Log.S path) ]
                | exception e ->
                  Log.event "serve.flight_dump_failed"
                    [ ("error", Log.S (Printexc.to_string e)) ])
              | Some _ | None -> ());
              Verdict.Unknown why
          in
          let solve_ms = (Deadline.wall_now () -. ts) *. 1000. in
          let entry =
            {
              e_verdict = Protocol.verdict_of_sep verdict;
              e_witness = witness_digest verdict;
              e_solve_ms = solve_ms;
            }
          in
          let cacheable =
            match verdict with
            | Verdict.Valid | Verdict.Invalid _ -> true
            | Verdict.Unknown _ -> false
          in
          (entry, cacheable)
        in
        let entry, origin = Cache.find_or_compute t.cache key ~compute in
        let o_origin =
          match origin with
          | Cache.Hit ->
            Metrics.incr (Lazy.force m_hits);
            Protocol.Cache_hit
          | Cache.Computed ->
            Metrics.incr (Lazy.force m_misses);
            Protocol.Solved
          | Cache.Joined ->
            Metrics.incr (Lazy.force m_joins);
            Protocol.Joined
        in
        let time_ms = (Deadline.wall_now () -. t0) *. 1000. in
        Metrics.observe ~rid:jb.jb_rid (Lazy.force m_request_s)
          (time_ms /. 1000.);
        Window.add ~rid:jb.jb_rid t.lat time_ms;
        Log.event "serve.reply"
          ([
             ("verdict", Log.S (Protocol.verdict_to_string entry.e_verdict));
             ("origin", Log.S (Protocol.origin_to_string o_origin));
             ("digest", Log.S digest);
             ("solve_ms", Log.F entry.e_solve_ms);
             ("time_ms", Log.F time_ms);
           ]
          @
          match entry.e_verdict with
          | Protocol.Unknown why -> [ ("reason", Log.S why) ]
          | Protocol.Valid | Protocol.Invalid -> []);
        Ok
          {
            o_verdict = entry.e_verdict;
            o_origin;
            o_digest = digest;
            o_witness = entry.e_witness;
            o_solve_ms = entry.e_solve_ms;
            o_time_ms = time_ms;
            o_queue_ms = queue_ms;
          })

let worker t i () =
  Obs.name_thread (Printf.sprintf "serve:worker-%d" i);
  let rec loop () =
    match Bqueue.pop t.queue with
    | None -> ()
    | Some (jb, cb) ->
      Metrics.set (Lazy.force m_queue_depth) (float_of_int (Bqueue.length t.queue));
      let reply =
        try process t jb
        with e -> Result.Error ("internal error: " ^ Printexc.to_string e)
      in
      (* Count before the callback runs: a client that sees its reply and
         immediately asks for stats must observe the request as completed. *)
      Atomic.incr t.completed;
      (try cb reply with _ -> ());
      loop ()
  in
  loop ()

let create ?workers ?(queue_capacity = 64) ?(cache_capacity = 1024)
    ?(cache_shards = 16) ?(default_timeout_s = 30.)
    ?(backend = default_backend) ?flight_dir () =
  let n_workers =
    match workers with
    | Some n -> max 1 n
    | None -> max 1 (min 8 (Domain.recommended_domain_count () - 1))
  in
  (* A serving process reports live metrics whether or not tracing is on;
     see the note on the metric handles above. The flight recorder is
     always-on for the same reason: when a request wedges, its recent
     history must already be in the ring. *)
  Metrics.set_always_on true;
  Flight.enable ();
  Option.iter Flight.set_dump_dir flight_dir;
  let t =
    {
      queue = Bqueue.create ~capacity:queue_capacity;
      cache = Cache.create ~shards:cache_shards ~capacity:cache_capacity ();
      lat = Window.create ();
      stop = Atomic.make false;
      backend;
      default_timeout_s;
      n_workers;
      submitted = Atomic.make 0;
      completed = Atomic.make 0;
      shed = Atomic.make 0;
      errors = Atomic.make 0;
      flight_dir;
      lanes = Hashtbl.create 16;
      lanes_mu = Mutex.create ();
      domains = [||];
      shutdown_mu = Mutex.create ();
    }
  in
  (* Solver domains report progress through this global hook; each tick
     updates the reporting domain's row in the live lane table (consumed by
     `sufdec top` via stats). Tick cadence is once per 1024 conflicts plus
     one at solve start, so the mutex is uncontended in practice. *)
  Progress.set_callback
    (Some
       (fun snap ->
         let tid = snap.Progress.p_tid in
         let name =
           match List.assoc_opt tid (Obs.thread_names ()) with
           | Some n -> n
           | None -> Printf.sprintf "d%d" tid
         in
         let ln =
           {
             ln_tid = tid;
             ln_name = name;
             ln_rid = Trace_ctx.rid ();
             ln_conflicts = snap.Progress.p_conflicts;
             ln_rate = snap.Progress.p_rate;
             ln_elapsed_s = snap.Progress.p_elapsed;
             ln_updated = Unix.gettimeofday ();
           }
         in
         Mutex.protect t.lanes_mu (fun () -> Hashtbl.replace t.lanes tid ln)));
  t.domains <- Array.init n_workers (fun i -> Domain.spawn (worker t i));
  t

let lanes t =
  let now = Unix.gettimeofday () in
  Mutex.protect t.lanes_mu (fun () ->
      Hashtbl.fold
        (fun _ ln acc ->
          if now -. ln.ln_updated <= lane_ttl_s then ln :: acc else acc)
        t.lanes [])
  |> List.sort (fun a b -> compare a.ln_tid b.ln_tid)

let submit t jb cb =
  if Bqueue.try_push t.queue (jb, cb) then begin
    Atomic.incr t.submitted;
    Metrics.set (Lazy.force m_queue_depth) (float_of_int (Bqueue.length t.queue));
    true
  end
  else begin
    Atomic.incr t.shed;
    Metrics.incr (Lazy.force m_shed);
    Obs.instant ~cat:"serve" "serve.shed";
    (* Shed jobs never reach [process], so the correlation fields must be
       explicit here. *)
    Log.event "serve.shed"
      [ ("rid", Log.S jb.jb_rid); ("id", Log.S jb.jb_id) ];
    false
  end

let solve ?(block = false) t jb =
  let mu = Mutex.create () in
  let cv = Condition.create () in
  let slot = ref None in
  let cb reply =
    Mutex.lock mu;
    slot := Some reply;
    Condition.signal cv;
    Mutex.unlock mu
  in
  let accepted =
    if block then begin
      let ok = Bqueue.push t.queue (jb, cb) in
      if ok then Atomic.incr t.submitted
      else begin
        Atomic.incr t.shed;
        Metrics.incr (Lazy.force m_shed);
        Log.event "serve.shed"
          [ ("rid", Log.S jb.jb_rid); ("id", Log.S jb.jb_id) ]
      end;
      ok
    end
    else submit t jb cb
  in
  if not accepted then None
  else begin
    Mutex.lock mu;
    while !slot = None do
      Condition.wait cv mu
    done;
    let r = !slot in
    Mutex.unlock mu;
    r
  end

let queue_depth t = Bqueue.length t.queue

let cache_stats t = Cache.stats t.cache

(* Seed the result cache with a verdict computed elsewhere (the fleet
   router's persistent log replayed at backend start). Decisive verdicts
   only, same invariant as the solve path: an [unknown] is a budget
   artifact and must never be served as a cached answer. *)
let warm t ~key ~verdict ~witness ~solve_ms =
  match verdict with
  | Protocol.Unknown _ -> false
  | (Protocol.Valid | Protocol.Invalid) as v ->
    Cache.add t.cache key
      { e_verdict = v; e_witness = witness; e_solve_ms = solve_ms };
    true

type stats = {
  st_workers : int;
  st_submitted : int;
  st_completed : int;
  st_shed : int;
  st_errors : int;
  st_queue_depth : int;
  st_cache : Cache.stats;
  st_lat_count : int;
  st_p50_ms : float;
  st_p90_ms : float;
  st_p99_ms : float;
  st_p99_rid : string;  (* rid of the request at the p99 rank; "" if none *)
  st_lanes : lane list;
}

let stats t =
  let quantiles = Window.quantiles t.lat [ 0.5; 0.9; 0.99 ] in
  let p50, p90, p99 =
    match quantiles with [ a; b; c ] -> (a, b, c) | _ -> (0., 0., 0.)
  in
  {
    st_workers = t.n_workers;
    st_submitted = Atomic.get t.submitted;
    st_completed = Atomic.get t.completed;
    st_shed = Atomic.get t.shed;
    st_errors = Atomic.get t.errors;
    st_queue_depth = Bqueue.length t.queue;
    st_cache = Cache.stats t.cache;
    st_lat_count = Window.length t.lat;
    st_p50_ms = p50;
    st_p90_ms = p90;
    st_p99_ms = p99;
    st_p99_rid =
      (match Window.exemplar t.lat 0.99 with Some (_, rid) -> rid | None -> "");
    st_lanes = lanes t;
  }

let stats_json t =
  let s = stats t in
  let c = s.st_cache in
  Json.Obj
    [
      (* Which fleet member this is, from the Prometheus const label the
         CLI stamps at startup ("" outside a fleet) — lets the router's
         merged stats attribute exemplars and lanes to a shard. *)
      ( "backend",
        Json.Str
          (Option.value (Sepsat_obs.Prom.const_label "backend") ~default:"")
      );
      ("workers", Json.Num (float_of_int s.st_workers));
      ("submitted", Json.Num (float_of_int s.st_submitted));
      ("completed", Json.Num (float_of_int s.st_completed));
      ("shed", Json.Num (float_of_int s.st_shed));
      ("errors", Json.Num (float_of_int s.st_errors));
      ("queue_depth", Json.Num (float_of_int s.st_queue_depth));
      ( "latency_ms",
        Json.Obj
          [
            ("count", Json.Num (float_of_int s.st_lat_count));
            ("p50", Json.Num s.st_p50_ms);
            ("p90", Json.Num s.st_p90_ms);
            ("p99", Json.Num s.st_p99_ms);
            ("p99_rid", Json.Str s.st_p99_rid);
          ] );
      ( "exemplars",
        Json.Arr
          (List.map
             (fun (ub, e) ->
               Json.Obj
                 [
                   ( "le",
                     if Float.is_finite ub then Json.Num ub
                     else Json.Str "+Inf" );
                   ("rid", Json.Str e.Metrics.ex_rid);
                   ("value_s", Json.Num e.Metrics.ex_value);
                   ("ts", Json.Num e.Metrics.ex_ts);
                 ])
             (Metrics.exemplars (Lazy.force m_request_s))) );
      ( "lanes",
        Json.Arr
          (List.map
             (fun ln ->
               Json.Obj
                 [
                   ("tid", Json.Num (float_of_int ln.ln_tid));
                   ("name", Json.Str ln.ln_name);
                   ("rid", Json.Str ln.ln_rid);
                   ("conflicts", Json.Num (float_of_int ln.ln_conflicts));
                   ("rate", Json.Num ln.ln_rate);
                   ("elapsed_s", Json.Num ln.ln_elapsed_s);
                 ])
             s.st_lanes) );
      ( "cache",
        Json.Obj
          [
            ("hits", Json.Num (float_of_int c.Cache.hits));
            ("misses", Json.Num (float_of_int c.Cache.misses));
            ("joins", Json.Num (float_of_int c.Cache.joins));
            ("evictions", Json.Num (float_of_int c.Cache.evictions));
            ("size", Json.Num (float_of_int c.Cache.size));
            ("capacity", Json.Num (float_of_int c.Cache.capacity));
          ] );
    ]

let shutdown ?(cancel_inflight = true) t =
  Mutex.lock t.shutdown_mu;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.shutdown_mu)
    (fun () ->
      if cancel_inflight then Atomic.set t.stop true;
      Bqueue.close t.queue;
      Array.iter Domain.join t.domains;
      t.domains <- [||];
      (* The progress hook captures [t]; remove it so a later engine in the
         same process (tests) does not feed a dead lane table. *)
      Progress.set_callback None)
