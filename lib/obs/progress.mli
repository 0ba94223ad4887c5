(** MiniSat-style periodic progress snapshots from the CDCL loop.

    The solver calls {!tick} from its existing budget/deadline polling point
    (every 1024 conflicts), so enabling progress reporting adds no new
    branches to propagation. Each tick builds a {!snapshot}, forwards it to
    the installed callback, and writes one [sat.progress] record into the
    {!Obs} store, which the Chrome view draws as the [sat.conflicts] and
    [sat.learnts] counter tracks.

    Everything is domain-safe: the callback cell is an atomic, and the
    rate/printer state is domain-local, so the serve engine's concurrent
    workers report independently. *)

type snapshot = {
  p_conflicts : int;
  p_decisions : int;
  p_propagations : int;
  p_learnts : int;
  p_trail : int;  (** assigned literals *)
  p_vars : int;
  p_level : int;  (** current decision level *)
  p_elapsed : float;  (** wall seconds since the [solve] call started *)
  p_rate : float;  (** conflicts/second over the interval since the last tick *)
  p_tid : int;  (** emitting domain *)
}

val set_callback : (snapshot -> unit) option -> unit
(** Install (or remove) the global snapshot consumer. *)

val callback : unit -> (snapshot -> unit) option

val tick :
  conflicts:int ->
  decisions:int ->
  propagations:int ->
  learnts:int ->
  trail:int ->
  vars:int ->
  level:int ->
  started:float ->
  unit
(** No-op unless some consumer is live: {!Obs.enabled} or an installed
    callback. [started] is the [Unix.gettimeofday] at the
    start of the enclosing [solve] call. *)

val install_printer : ?every_s:float -> unit -> unit
(** Install a callback printing one progress line per snapshot to stderr,
    rate-limited to one line per [every_s] (default 1.0) per domain — the
    [--log-level debug] view. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
