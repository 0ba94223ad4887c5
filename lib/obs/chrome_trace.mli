(** Chrome [trace_event] JSON export of the {!Obs} event stream.

    The output loads in [chrome://tracing] and {{:https://ui.perfetto.dev}
    Perfetto}: one lane per emitting domain (named via {!Obs.name_thread}),
    spans as matched ["B"]/["E"] duration events, {!Obs.Instant} as ["i"]
    instants and {!Obs.Sample} as ["C"] counter tracks. Timestamps are
    microseconds relative to the earliest event.

    Every ["B"] is guaranteed a matching ["E"] on the same [tid], emitted in
    non-decreasing timestamp order with proper nesting — the emitter sorts
    each domain's spans and replays them against a stack, so the file is
    structurally valid even if ring overflow dropped events. *)

val to_string : Obs.event list -> string
(** The trace document for [evs] on one line, printed by
    {!Sepsat_util.Json.to_string}. *)

val write_file : string -> Obs.event list -> unit
(** Export {!Obs.events} (plus thread-name metadata) to [path]. *)

val write_current : string -> unit
(** [write_current path] is [write_file path (Obs.events ())]. *)
