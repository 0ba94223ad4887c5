(** Pipeline tracing: nested phase spans collected into per-domain ring
    buffers.

    The whole subsystem is off by default and costs one atomic load per
    collector (tracing, {!Flight}) per call site when everything is
    disabled. When enabled ({!enable}), every emission goes to
    a ring buffer owned by the emitting domain — no locks or cross-domain
    writes on the hot path — so the serve engine's worker domains can trace
    concurrently. Buffers register themselves in a global list under a mutex
    on first use; {!events} merges them after the emitting domains have
    quiesced (for example after [Domain.join]).

    Timestamps are wall-clock seconds filtered through a per-domain monotone
    clamp, so within one domain the capture order is the timestamp order even
    if the system clock steps backwards. Spans close in LIFO order per
    domain, which together with the clamp makes every domain's span set
    well-nested: two spans of one domain are either disjoint or one contains
    the other. Export with {!Chrome_trace}. *)

(** {2 Enabling} *)

val enabled : unit -> bool
(** One atomic load; every emission function returns immediately when this
    is false. *)

val enable : ?capacity:int -> unit -> unit
(** Start collecting. [capacity] is the per-domain ring size in events
    (default 65536); when a ring overflows, the oldest events are dropped
    and counted in {!dropped}. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop every collected event, ring and thread name. Collection state
    (enabled flag, level) is unchanged. *)

(** {2 Log levels} *)

type level = Quiet | Info | Debug

val set_level : level -> unit

val get_level : unit -> level

val level_of_string : string -> level option
(** ["quiet"], ["info"], ["debug"]. *)

val log : level -> ('a, out_channel, unit) format -> 'a
(** [log lvl fmt ...] prints one line to stderr when the current level is at
    least [lvl]. Independent of {!enabled}: logging is for humans, the event
    stream for exporters. *)

(** {2 Events} *)

type event =
  | Span of {
      name : string;
      cat : string;
      ts : float;
      dur : float;
      tid : int;
      rid : string;
    }
      (** a completed phase scope; [ts] is the begin time, [rid] the ambient
          {!Trace_ctx.rid} at capture ([""] outside any request) *)
  | Instant of {
      name : string;
      cat : string;
      ts : float;
      tid : int;
      rid : string;
    }
  | Sample of { name : string; ts : float; value : float; tid : int }
      (** a point on a counter track (e.g. conflicts so far) *)

val event_ts : event -> float

val event_tid : event -> int

val span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a phase scope. The span is recorded when
    [f] returns {e or raises} (the exception is re-raised), so timeouts and
    translation blowups still leave their phase in the trace. Disabled mode
    is a single branch around a tail call of [f]. *)

val timed : ?cat:string -> string -> (unit -> 'a) -> 'a * float
(** Like {!span} but always measures: returns [f]'s result together with the
    elapsed wall-clock seconds, recording the span only when enabled. For
    callers that need the duration regardless of tracing (phase breakdowns
    in results). On an exception the span is still recorded, then the
    exception is re-raised. *)

val instant : ?cat:string -> string -> unit

val sample : string -> float -> unit
(** [sample name v] records a counter-track point, e.g.
    [sample "sat.conflicts" (float n)]. *)

(** {2 Thread (domain) naming} *)

val name_thread : string -> unit
(** Label the calling domain's lane in exported traces, flight dumps and the
    engine's live lane table — worker pools and load-generator clients
    suffix an index. Last call per domain wins.
    Unconditional (not gated on {!enabled}). *)

val thread_names : unit -> (int * string) list

(** {2 Collection} *)

val events : unit -> event list
(** Every recorded event across all domains, sorted by timestamp (ties by
    domain id). Safe once emitting domains have quiesced; events emitted
    concurrently with this call may be missed. *)

val dropped : unit -> int
(** Events lost to ring overflow since the last {!reset}. *)

(** {2 Span rollup} *)

type span_stat = {
  ss_name : string;
  ss_count : int;
  ss_total : float;  (** summed duration, seconds *)
  ss_max : float;
}

val span_summary : event list -> span_stat list
(** Per-name aggregation of the [Span] events, sorted by descending total
    duration. *)

val pp_summary : Format.formatter -> event list -> unit
(** Human-readable table of {!span_summary} (the [--stats] view). *)
