(** The event store: one bounded ring of records per domain, behind one
    switch.

    Everything observable about a run lands here as a {!record}: phase
    spans ({!span}, {!timed}), point events ({!instant}), log lines
    ({!Log.event}) and solver progress snapshots ({!Progress.tick}). The
    consumers are views over the one store: the [--stats] rollup
    ({!span_summary}), the Chrome trace and the flight dump ({!Flight}),
    and the metrics gate ({!Metrics}).

    The store is off by default and costs one atomic load per call site
    when off. When on ({!enable}), every record goes to a ring owned by
    the recording domain — no locks or cross-domain writes on the hot
    path — so the serve engine's worker domains record concurrently.
    Rings register themselves in one global list under a mutex on first
    use.

    Each record is an immutable block stored with a single pointer write
    into a [record option array], so a reader racing a writer sees either
    the old record or the new one, never a torn mix: {!records} is safe on
    a live process (which the flight dump's SIGUSR1 handler relies on).

    Timestamps come from one {!Clock.pair} per record; {!Clock}'s
    process-wide clamp keeps each domain's captures monotone, and spans
    close in LIFO order per domain, so every domain's span set is
    well-nested. *)

(** {2 Enabling} *)

val enabled : unit -> bool
(** One atomic load; every recording function returns immediately when
    this is false. *)

val enable : ?capacity:int -> unit -> unit
(** Start recording. [capacity] is the per-domain ring size in records
    (default 65536, what [--trace], [--stats] and [--log-level] use;
    servers pass 4096). Rings created after the call use it. On overflow
    the oldest records are overwritten and counted in {!dropped}. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop every recorded ring and thread name. The enabled flag, capacity
    and log level are unchanged. *)

(** {2 Log levels} *)

type level = Quiet | Info | Debug

val set_level : level -> unit

val get_level : unit -> level

val level_of_string : string -> level option
(** ["quiet"], ["info"], ["debug"]. *)

val log : level -> ('a, out_channel, unit) format -> 'a
(** [log lvl fmt ...] prints one line to stderr when the current level is at
    least [lvl]. Independent of {!enabled}: logging is for humans, the store
    for views. *)

(** {2 Records} *)

type kind = Span | Log | Progress | Event

type record = {
  fr_ts : float;  (** completion wall-clock time *)
  fr_mono : float;  (** the same instant on this process's {!Clock.mono_now} *)
  fr_tid : int;  (** recording domain id *)
  fr_rid : string;  (** request id; [""] outside any request *)
  fr_kind : kind;
  fr_name : string;
  fr_dur_ms : float;  (** span duration in ms; [0.] for point records *)
  fr_data : (string * string) list;  (** extra key/value payload *)
}

val record :
  ?rid:string ->
  ?dur_ms:float ->
  ?data:(string * string) list ->
  kind ->
  string ->
  unit
(** [record kind name] appends one record to the calling domain's ring.
    [rid] defaults to the ambient {!Trace_ctx.rid}. For spans measured
    elsewhere (the fleet's hop spans); phase scopes use {!span}. *)

val span : ?cat:string -> string -> (unit -> 'a) -> 'a
(** [span name f] runs [f] inside a phase scope and records one [Span]
    when [f] returns {e or raises} (the exception is re-raised), so
    timeouts and translation blowups still leave their phase behind. The
    record carries the ambient rid, [cat] (when not empty) and the
    {!Trace_ctx.path} (when deeper than [name] itself) in its data. Off,
    this is a single branch around a tail call of [f]. *)

val timed : ?cat:string -> string -> (unit -> 'a) -> 'a * float
(** Like {!span} but always measures: returns [f]'s result together with
    the elapsed seconds, recording the span only when the store is on. For
    callers that need the duration regardless (phase breakdowns in
    results). *)

val instant : ?cat:string -> string -> unit
(** Record a point [Event]. *)

(** {2 Thread (domain) naming} *)

val name_thread : string -> unit
(** Label the calling domain's lane in Chrome traces, flight dumps and the
    engine's live lane table — worker pools and load-generator clients
    suffix an index. Last call per domain wins. Unconditional (not gated
    on {!enabled}). *)

val thread_names : unit -> (int * string) list
(** [(domain id, name)] pairs, sorted. *)

(** {2 Collection} *)

val records : unit -> record list
(** Every live record across all domains, sorted by mono timestamp (ties
    by domain id, then ring order). Safe to call while writers record;
    records written concurrently may be missed, never torn. *)

val dropped : unit -> int
(** Records lost to ring overwrite since the last {!reset}. *)

(** {2 Span rollup} *)

type span_stat = {
  ss_name : string;
  ss_count : int;
  ss_total : float;  (** summed duration, seconds *)
  ss_max : float;
}

val span_summary : record list -> span_stat list
(** Per-name aggregation of the [Span] records, sorted by descending total
    duration. *)

val pp_summary : Format.formatter -> record list -> unit
(** Human-readable table of {!span_summary} (the [--stats] view). *)
