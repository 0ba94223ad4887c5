(** Leveled JSON-lines structured logger with request-correlation ids.

    {!Obs.log} prints lines for humans; this module prints lines for
    machines: one JSON object per line with a timestamp, level, event name
    and typed fields, so one [grep] on a correlation id reconstructs a
    request's full path through the server and [jq] can aggregate the rest.

    Concurrency: each event is rendered to a complete line with
    {!Sepsat_util.Json.to_string}, then handed to the sink under a single
    mutex — concurrent worker domains never interleave mid-line, and a
    sink that raises loses only its own line. Off by default; a disabled
    {!event} costs one atomic load and a branch. *)

type value = S of string | I of int | F of float | B of bool
(** Field values. Non-finite floats render as [null] (strict JSON); in
    flight records a non-string value is stored as its JSON text. *)

type field = string * value

val enable : ?level:Obs.level -> ?sink:(string -> unit) -> unit -> unit
(** Start emitting. [level] (default [Info]) is the threshold: events above
    it are dropped. [sink] receives one complete line (no newline) per
    event, serialized under the module's mutex; default writes to stderr.
    The sink should not call back into [Log]. *)

val disable : unit -> unit

val enabled : unit -> bool

val set_level : Obs.level -> unit

val event : ?level:Obs.level -> string -> field list -> unit
(** [event name fields] emits one line
    [{"ts":…, "level":…, "event":name, …fields, …ambient}]. Ambient
    context fields (see {!with_fields}) are appended unless shadowed by an
    explicit field of the same key. [~level:Quiet] events are never
    emitted. When the {!Flight} recorder is on, every non-Quiet event is
    also recorded there (regardless of {!enabled} and the level
    threshold), filed under the explicit or ambient ["rid"] field. *)

val with_fields : field list -> (unit -> 'a) -> 'a
(** Push ambient fields for the calling domain for the duration of the
    callback (restored on return {e and} on exception). Nested calls
    accumulate. This is how a correlation id threads through a request's
    whole path without plumbing it into every call site. *)

val current_fields : unit -> field list
(** The calling domain's ambient fields, outermost first. *)

val mint : string -> string
(** [mint "rq"] returns ["rq-1"], ["rq-2"], … — process-globally unique
    correlation ids, cheap enough to mint per request. *)
