(** The shard's JSON-lines front end over an {!Engine}: one thread runs
    one {!Poll} loop over {!Lineconn}s, for a Unix-domain socket or for
    stdin/stdout. Solves run on the engine's worker domains and come back
    to the loop through a self-pipe, so one connection can pipeline:
    replies carry the request's [id] and may arrive out of order. A full
    engine queue answers [busy] at once; a peer that does not read its
    replies is not read either. A malformed line, or a partial line past
    {!Lineconn.max_line}, gets an [error] with an empty id (the latter
    also ends its connection). SIGPIPE is ignored: a peer that leaves
    mid-reply loses only its own connection.

    With [metrics_path] a second socket answers Prometheus scrapes
    ([GET /metrics] or [/], HTTP/1.0, one response per connection, else
    404), e.g. [curl --unix-socket PATH http://localhost/metrics].

    A [shutdown] request is answered [bye] and closes the listeners
    (removing their socket files); the requester's connection reads no
    more, and every connection is served until its EOF. The entry points
    return once no connection is left and every accepted request has been
    answered; the caller still owns the engine. *)

val serve_unix : ?metrics_path:string -> Engine.t -> path:string -> unit
(** Listen at [path] (a stale socket file is replaced) until a [shutdown]. *)

val serve_stdio :
  ?metrics_path:string ->
  ?input:Unix.file_descr ->
  ?output:Unix.file_descr ->
  Engine.t ->
  [ `Eof | `Shutdown ]
(** Serve the stream read from [input] (default stdin) and written to
    [output] (default stdout) until its end or a [shutdown], and say which.
    O_NONBLOCK is cleared on both fds before returning, so a terminal is
    not left non-blocking. *)
