(** Load generator for the serving engine: concurrent clients over a
    repeated benchmark workload, measuring throughput and the cache's
    effect on latency.

    Drives an in-process {!Sepsat_serve.Engine} (no sockets — the protocol
    layer is measured by the CI smoke instead) with N client domains, each
    submitting the whole workload [repeats] times in a client-specific
    rotation, so early requests overlap distinct formulas while later
    rounds hammer the cache. Three numbers fall out per response: its
    verdict (checked against a sequential [Decide.decide] pass over the
    same workload — the concurrency soundness gate), its origin (cold
    solve, cache hit, or single-flight join) and its client-observed
    latency. The report separates cold from cache-hit latency; the
    engine's whole point is that the ratio between them is large. *)

module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide

type target =
  | In_process  (** drive an {!Sepsat_serve.Engine} directly (no sockets) *)
  | Fleet of string
      (** connect client sessions to this Unix-domain socket — a single
          [sufdec serve] or a fleet router; clients are threads (blocked
          on I/O, so concurrency may exceed the core count) and retry
          transient failures via {!Sepsat_serve.Session.with_retry} *)

type config = {
  clients : int;  (** concurrent client domains (or threads, for {!Fleet}) *)
  repeats : int;  (** workload passes per client; ≥ 2 exercises the cache *)
  bench_names : string list;  (** suite benchmarks ({!Suite.find} names) *)
  method_ : Decide.method_;
  timeout_s : float;  (** per-request wall budget *)
  workers : int;  (** engine worker domains; ignored for {!Fleet} *)
  queue_capacity : int;
  cache_capacity : int;
  target : target;
}

val default : config
(** 4 clients x 3 repeats over the Figure-2 benchmarks, hybrid method,
    2 engine workers. *)

type lat = {
  l_count : int;
  l_mean_ms : float;
  l_min_ms : float;
  l_max_ms : float;
  l_p50_ms : float;  (** {!Sepsat_obs.Window} quantiles; 0 when empty *)
  l_p90_ms : float;
  l_p99_ms : float;
}

type report = {
  r_config : config;
  r_requests : int;
  r_ok : int;
  r_busy : int;
  r_errors : int;
  r_wall_s : float;
  r_throughput_rps : float;  (** completed requests per wall second *)
  r_all : lat;  (** every successful response — the under-load quantiles *)
  r_cold : lat;  (** responses that ran the pipeline *)
  r_hit : lat;  (** responses answered from the cache *)
  r_joined : lat;  (** responses deduplicated onto an in-flight solve *)
  r_speedup : float;
      (** cold mean / hit mean — the acceptance headline; 0 when either
          bucket is empty *)
  r_mismatches : (string * string * string) list;
      (** (request id, sequential verdict, served verdict) for every
          response disagreeing with the sequential pass; must be [] *)
}

val run : config -> report
(** Builds the workload, runs the sequential reference pass, then the
    concurrent phase, then shuts the engine down. *)

val pp : Format.formatter -> report -> unit

val write_json : string -> report -> unit
(** Schema-2 throughput report, printed by {!Sepsat_util.Json} like
    {!Runner.write_json}. Includes a perf-gate-dialect ["runs"] array —
    one entry per overall latency quantile (mean/p50/p90/p99, bench
    ["serve.loadgen"] or ["fleet.loadgen"]) — so
    [bench --compare BASELINE --compare-current THIS.json] gates the
    served latency distribution like any other benchmark. *)
