(** Uniform benchmark execution with statistics collection. *)

module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict

type outcome = Completed | Timed_out | Blew_up

type row = {
  bench : string;
  family : string;
  invariant_checking : bool;
  method_ : Decide.method_;
  size : int;  (** SUF DAG nodes *)
  sep_cnt : int;  (** separation-predicate estimate of the formula *)
  verdict : Verdict.t;
  outcome : outcome;
  total_time : float;  (** CPU time reported by the decision procedure *)
  wall_time : float;  (** wall clock around the whole decide call *)
  translate_time : float;
  sat_time : float;
  cnf_clauses : int;
  conflicts : int;  (** learned conflict clauses (0 for SVC) *)
  decisions : int;
  propagations : int;
  trans_constraints : int;
  phase_times : (string * float) list;
      (** per-phase split of [total_time]; see {!Sepsat.Decide.result} *)
  alloc_words : float;  (** words allocated during the decide call *)
  major_words : float;  (** words allocated directly on the major heap *)
  heap_words : int;  (** major-heap size after the call *)
}

val run : ?deadline_s:float -> Decide.method_ -> Suite.benchmark -> row
(** Builds the benchmark in a fresh context and decides it. Default deadline
    30 seconds of CPU time (the laptop-scale stand-in for the paper's
    30-minute limit). *)

val reset_recorded : unit -> unit
(** Forget the rows recorded so far. *)

val recorded_rows : unit -> row list
(** All rows recorded by {!run} since start (or the last
    {!reset_recorded}), in execution order. *)

val write_json : string -> row list -> unit
(** Write a schema-2 report object, printed by
    {!Sepsat_util.Json.to_string}: [{"schema": 2, "runs": [...], "gc": {...}, "metrics":
    {...}}]. Keys per run: [bench], [family], [method], [verdict]
    ([valid]/[invalid]/[unknown]), [outcome]
    ([completed]/[timeout]/[blowup]), [wall_time], [cpu_time],
    [translate_time], [sat_time], [phase_times] (object of per-phase
    seconds), [size], [sep_cnt], [cnf_clauses], [conflicts], [decisions],
    [propagations], [gc] (per-run allocation deltas). The top-level [gc]
    is the process-wide [Gc.quick_stat] at write time; [metrics] is
    {!Sepsat_obs.Metrics.to_json} (empty object when observability is
    off). *)

val penalized_time : deadline_s:float -> row -> float
(** Total time, with timeouts/blowups charged the full deadline — the
    convention used when plotting against the paper's "timeout" gridline. *)

val normalized_time : deadline_s:float -> row -> float
(** {!penalized_time} per thousand DAG nodes (the paper's sec/Knodes
    normalization for Fig. 3). *)
