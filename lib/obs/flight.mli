(** Always-on flight recorder: bounded per-domain rings of recent span
    completions, log lines and solver-progress snapshots, dumpable as JSON
    at any moment — on SIGUSR1, on crash, on per-request deadline expiry,
    or through the serve protocol's [dump] op. Post-hoc debugging of a
    wedged server without tracing pre-enabled.

    Recording follows {!Obs}'s ring discipline (domain-owned rings via
    DLS, registration under one mutex) and stores each record with a
    single pointer write of an immutable block, so concurrent dumps never
    observe a torn record. A disabled {!record} costs one atomic load and
    a branch. *)

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

val enabled : unit -> bool

val enable : ?capacity:int -> unit -> unit
(** Start recording. [capacity] is the per-domain ring size in records
    (default 4096); on overflow the oldest records are overwritten and
    counted in {!dropped}. The serve engine enables this at startup. *)

val disable : unit -> unit

val reset : unit -> unit
(** Drop every recorded ring. The enabled flag is unchanged. *)

val record :
  ?rid:string ->
  ?dur_ms:float ->
  ?data:(string * string) list ->
  kind ->
  string ->
  unit
(** [record kind name] appends one record to the calling domain's ring.
    [rid] defaults to the ambient {!Trace_ctx.rid}. No-op (one atomic
    load) when disabled. *)

val records : unit -> record list
(** Every live record across all domains, sorted by timestamp. Safe to
    call while writers are recording; records written concurrently with
    the call may be missed or appear out of ring order, never torn. *)

val dropped : unit -> int
(** Records lost to ring overwrite since the last {!reset}. *)

val to_json : unit -> Sepsat_util.Json.t
(** The full recorder state as one JSON document
    [{"schema": "sepsat-flight-1", "pid", "dumped_at", "wall", "mono",
    "dropped", "records": [...]}]. [wall] and [mono] are one
    {!Clock.pair} sampled at dump time — the anchor {!assemble} uses to
    align this process's records with other processes' dumps. Each record
    carries [ts], [mono], [tid], [kind] and [name], plus [rid], [dur_ms]
    and [data] (an object of strings) when they are not empty or zero. *)

(** {1 Cross-process assembly} *)

type source = {
  src_label : string;  (** Chrome lane (process) name, e.g. ["router"] *)
  src_pid : int;  (** the dumping process's OS pid (informational) *)
  src_wall : float;  (** dump-header [wall] *)
  src_mono : float;  (** dump-header [mono], paired with [src_wall] *)
  src_records : record list;
}
(** One process's flight dump, decoded. For dumps predating the header
    pair, set [src_mono = src_wall] and each record's [fr_mono = fr_ts]
    — alignment degrades to raw wall time, exactly the old behaviour. *)

val source_of_json : label:string -> Sepsat_util.Json.t -> source
(** Decode a {!to_json} document. [source_of_json ~label (to_json ())]
    returns every record with the same fields, floats bit for bit, and
    the header's [wall]/[mono] pair. A dump without the header pair falls
    back to [dumped_at] for both, and a record without [mono] to its [ts],
    as described for {!source}. Missing fields take the defaults {!to_json}
    omits ([""], [0.], [[]]); unknown kinds decode as [Event]. *)

val assemble : ?rid:string -> source list -> string
(** Merge many processes' flight records into one Chrome trace document
    (catapult JSON, one [pid] lane per source, named by [src_label]).
    Spans become ["X"] complete events; point records become instants.
    Record times are aligned onto one timeline via each source's
    wall/mono anchor pair, so only same-process mono differences are
    ever taken — correct even when the processes' wall clocks disagree.
    [rid] keeps only records of that request. *)

val write : string -> unit
(** Write {!to_json} (plus a trailing newline) to a file. *)

val set_dump_dir : string -> unit
(** Directory for {!dump} files (default ["."]). *)

val dump : reason:string -> unit -> string
(** Write a dump file [flight-<pid>-<seq>-<reason>.json] into the dump
    directory and return its path. [reason] is sanitized to
    [[A-Za-z0-9._-]]. *)

val install_signal_dump : ?signal:int -> unit -> unit
(** Install a handler (default SIGUSR1) that writes a {!dump} with reason
    ["signal"]. *)

val install_crash_dump : unit -> unit
(** Replace the uncaught-exception handler with one that writes a dump
    with reason ["crash"] before printing the exception and backtrace. *)
