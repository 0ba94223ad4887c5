(** Views over the {!Obs} store that leave the process: the flight dump,
    its decoder, the Chrome trace assembler and the dump triggers.

    A dump is the whole store as one JSON document, taken at any moment —
    on SIGUSR1, on crash, on per-request deadline expiry, or through the
    serve protocol's [dump] op — so a wedged or slow server can be
    debugged after the fact without tracing pre-enabled. Servers keep the
    store on at a small capacity for exactly this. The same assembler
    renders [--trace FILE] (this process's store, one source) and
    [sufdec trace] (many processes' dumps, one lane each). *)

val to_json : unit -> Sepsat_util.Json.t
(** The store as one JSON document
    [{"schema": "sepsat-flight-1", "pid", "dumped_at", "wall", "mono",
    "dropped", "records": [...]}]. [wall] and [mono] are one
    {!Clock.pair} sampled at dump time — the anchor {!assemble} uses to
    align this process's records with other processes' dumps. Each record
    carries [ts], [mono], [tid], [kind] and [name], plus [rid], [dur_ms]
    and [data] (an object of strings) when they are not empty or zero. *)

val write : string -> unit
(** Write {!to_json} (plus a trailing newline) to a file. *)

(** {1 Sources and assembly} *)

type source = {
  src_label : string;  (** Chrome lane (process) name, e.g. ["router"] *)
  src_pid : int;  (** the dumping process's OS pid (informational) *)
  src_wall : float;  (** dump-header [wall] *)
  src_mono : float;  (** dump-header [mono], paired with [src_wall] *)
  src_threads : (int * string) list;
      (** domain id -> {!Obs.name_thread} label; [[]] for decoded dumps *)
  src_records : Obs.record list;
}
(** One process's store, live ({!local}) or decoded from a dump. For dumps
    predating the header pair, [src_mono = src_wall] and each record's
    [fr_mono = fr_ts] — alignment degrades to raw wall time. *)

val local : unit -> source
(** This process's store as a source, labelled ["sepsat"]. *)

val source_of_json : label:string -> Sepsat_util.Json.t -> source
(** Decode a {!to_json} document. [source_of_json ~label (to_json ())]
    returns every record with the same fields, floats bit for bit, and
    the header's [wall]/[mono] pair. A dump without the header pair falls
    back to [dumped_at] for both, and a record without [mono] to its [ts],
    as described for {!source}. Missing fields take the defaults
    {!to_json} omits ([""], [0.], [[]]); unknown kinds decode as
    [Event]. *)

val assemble : ?rid:string -> source list -> string
(** Merge sources into one Chrome trace document (catapult JSON, one
    [pid] lane per source, named by [src_label], with a [thread_name]
    per named domain). Spans become ["X"] complete events and log and
    event records ["i"] instants, each with its rid in [args]. Every
    integer-valued data field [k] of a [Progress] record named [ns.*]
    becomes a point on the ["C"] counter track [ns.k] (so
    [sat.conflicts], [sat.learnts], [eij.trans_constraints]). Record
    times are aligned onto one timeline via each source's wall/mono
    anchor pair, so only same-process mono differences are ever taken —
    correct even when the processes' wall clocks disagree. [rid] keeps
    only records of that request. *)

val write_trace : string -> unit
(** Write [assemble [local ()]] to a file: the [--trace FILE] view. *)

(** {1 Dump triggers} *)

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
