(** The solver pool behind the server: a bounded request queue feeding
    worker domains, fronted by the structural result cache.

    Life of a request: {!submit} enqueues it (or refuses — {e sheds} — when
    the queue is at capacity, the explicit backpressure bound); a worker
    domain pops it, parses the text into a fresh per-request context (AST
    contexts are single-domain, exactly like {!Sepsat.Decide}'s portfolio),
    computes the {!Sepsat_suf.Ast.digest}, and asks the cache. A hit answers
    without solving; a miss runs the pipeline under a per-request wall-clock
    deadline — expiry yields an [unknown] verdict, never a dead worker — and
    identical concurrent misses are single-flighted so the pipeline runs
    once. Only decisive verdicts are cached: an [unknown] under one budget
    must not poison the answer under a larger one.

    Deadlines are wall-clock, not CPU: with several domains solving
    concurrently, [Sys.time] accumulates across all of them and a CPU budget
    would fire N times early (same reasoning as the portfolio's race
    deadline). Every worker also observes the engine's stop flag through
    {!Sepsat_util.Deadline.with_stop}, which is how {!shutdown} cancels
    in-flight solves promptly.

    Observability: spans [serve.request]/[serve.solve], counters
    [serve.requests], [serve.shed], [serve.errors],
    [serve.cache.{hits,misses,joins}], gauge [serve.queue_depth], histogram
    [serve.request_s]. Unlike the batch pipeline's instrumentation these
    are {e always on}: {!create} flips {!Sepsat_obs.Metrics.set_always_on}
    so the metrics and stats surfaces stay live in default runs. Each job
    also carries a server-minted correlation id ([rq-N]); when
    {!Sepsat_obs.Log} is enabled, every request emits [serve.request],
    [serve.shed], [serve.deadline], [serve.error] and [serve.reply] JSON
    lines tagged with that id, and a rolling window of request wall times
    feeds the p50/p90/p99 figures in {!stats}. *)

module Decide = Sepsat.Decide

type job = {
  jb_text : string;
  jb_lang : Protocol.lang;
  jb_method : Decide.method_;
  jb_timeout_s : float option;  (** [None]: the engine's default budget *)
  jb_id : string;  (** client-chosen id, echoed on the reply; may repeat *)
  jb_rid : string;
      (** correlation id, the key that ties this request's log lines,
          spans and exemplars together — the wire-carried fleet rid when
          the request arrived with a {!Protocol.trace_ctx}, server-minted
          otherwise *)
  jb_path : string list;
      (** trace hops crossed upstream of this process, outermost first
          (e.g. [["router"]]); installed as the base span path *)
  jb_enq_mono : float;
      (** {!Sepsat_obs.Clock.mono_now} at job creation; queue time is
          measured from here to processing start *)
}

val job :
  ?lang:Protocol.lang ->
  ?method_:Decide.method_ ->
  ?timeout_s:float ->
  ?id:string ->
  ?rid:string ->
  ?path:string list ->
  string ->
  job
(** Defaults: SUF text, [Hybrid_default], engine default budget, empty
    client id, freshly minted correlation id, empty hop path. Stamps the
    enqueue clock. *)

type outcome = {
  o_verdict : Protocol.verdict;
  o_origin : Protocol.origin;
  o_digest : string;  (** structural digest of the parsed formula *)
  o_witness : string option;  (** witness digest, [Invalid] only *)
  o_solve_ms : float;
      (** pipeline time of the run that produced the verdict; a cache hit
          reports the original solve's cost *)
  o_time_ms : float;  (** this request's wall time inside the engine *)
  o_queue_ms : float;
      (** time spent waiting in the request queue before a worker picked
          the job up — the [shard.queue] hop of a fleet trace *)
}

type reply = (outcome, string) result
(** [Error] carries a parse / front-end message; solver give-ups are
    [Ok] with an [Unknown] verdict. *)

type backend =
  method_:Decide.method_ ->
  deadline:Sepsat_util.Deadline.t ->
  Sepsat_suf.Ast.ctx ->
  Sepsat_suf.Ast.formula ->
  Sepsat_sep.Verdict.t
(** The solving step, pluggable for tests and alternate pipelines. *)

val default_backend : backend
(** [Decide.decide]'s verdict. *)

type t

val create :
  ?workers:int ->
  ?queue_capacity:int ->
  ?cache_capacity:int ->
  ?cache_shards:int ->
  ?default_timeout_s:float ->
  ?backend:backend ->
  ?flight_dir:string ->
  unit ->
  t
(** Spawns the worker domains immediately. Defaults: workers = recommended
    domain count - 1 (clamped to 1..8), queue 64, cache 1024 entries over 16
    shards, 30 s budget. Also enables the always-on
    {!Sepsat_obs.Flight} recorder; when [flight_dir] is given it becomes
    the dump directory and every per-request deadline expiry writes a
    flight dump there (without it, dumps happen only on demand — SIGUSR1,
    crash, [dump] op). *)

val submit : t -> job -> (reply -> unit) -> bool
(** Asynchronous entry point. [false] means the request was shed (queue
    full or engine shut down) and the callback will never run. The callback
    runs on a worker domain; it must not block for long. *)

val solve : ?block:bool -> t -> job -> reply option
(** Synchronous entry point. With [~block:false] (the default) a full queue
    sheds and returns [None]; with [~block:true] the caller waits for queue
    space instead — the cooperative in-process backpressure used by the
    load generator. [None] with [~block:true] only if the engine is shut
    down. *)

val queue_depth : t -> int

val cache_stats : t -> Cache.stats

val warm :
  t ->
  key:string ->
  verdict:Protocol.verdict ->
  witness:string option ->
  solve_ms:float ->
  bool
(** Seed the result cache with an externally computed verdict under the
    full cache key ([digest ^ "|" ^ method]) without running a solve —
    the fleet router's warm path. [false] (and no insertion) for an
    [Unknown] verdict: only decisive verdicts may be cached, the same
    invariant the solve path maintains. *)

type lane = {
  ln_tid : int;  (** solver domain id *)
  ln_name : string;  (** lane label from {!Sepsat_obs.Obs.name_thread} *)
  ln_rid : string;  (** request the lane is solving for; [""] if unknown *)
  ln_conflicts : int;
  ln_rate : float;  (** conflicts/s over the last progress interval *)
  ln_elapsed_s : float;  (** seconds since that lane's solve started *)
  ln_updated : float;  (** wall clock of the last progress tick *)
}
(** A live solver lane, fed by {!Sepsat_obs.Progress} ticks — what each
    solving domain is working on right now (the `sufdec top` view). *)

type stats = {
  st_workers : int;
  st_submitted : int;  (** accepted into the queue *)
  st_completed : int;
  st_shed : int;
  st_errors : int;  (** front-end (parse) failures *)
  st_queue_depth : int;
  st_cache : Cache.stats;
  st_lat_count : int;
      (** requests in the rolling latency window (most recent 512) *)
  st_p50_ms : float;  (** rolling request-latency quantiles; [0.] if empty *)
  st_p90_ms : float;
  st_p99_ms : float;
  st_p99_rid : string;
      (** rid of the actual request at the p99 rank — the one to chase;
          [""] when the window is empty or that slot carried no rid *)
  st_lanes : lane list;  (** lanes with a progress tick in the last 15 s *)
}

val stats : t -> stats

val stats_json : t -> Sepsat_util.Json.t
(** The [stats] reply payload of the protocol: the {!stats} fields plus
    [latency_ms.p99_rid], the [serve.request_s] histogram's per-bucket
    ["exemplars"] and the live ["lanes"] array. *)

val shutdown : ?cancel_inflight:bool -> t -> unit
(** Close the queue and join the workers. With [cancel_inflight] (default
    [true]) the stop flag is raised first, so queued and running requests
    come back [unknown (cancelled)] quickly; with [false] the backlog is
    drained at full fidelity. Pending callbacks all run either way.
    Idempotent. *)
