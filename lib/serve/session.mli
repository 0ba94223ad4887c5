(** Client side of the serving protocol — what `sufdec submit` and tests
    use to talk to a running server.

    A session is one JSON-lines stream: a connected Unix-domain socket or a
    channel pair (e.g. the pipes of a spawned [sufdec serve] process).
    {!send}/{!recv} expose the pipelined protocol directly; {!rpc} and the
    typed wrappers below do one request–reply round trip, which is the
    simple serial mode (at most one request in flight per session — several
    concurrent sessions, not pipelining, is how the CI smoke applies
    load). Sessions are not domain-safe; use one per client. *)

type t

val connect : ?retries:int -> string -> t
(** Connect to a server's Unix-domain socket. [retries] (default 0) extra
    attempts 100 ms apart cover the race against a server still binding
    its socket.
    @raise Unix.Unix_error when the last attempt fails. *)

val of_channels : in_channel -> out_channel -> t
(** Wrap an existing stream; {!close} then closes neither channel. *)

val send : t -> Protocol.request -> unit

val recv : t -> Protocol.reply option
(** Next reply line; [None] on a closed stream. A malformed line surfaces
    as an [Error] reply rather than an exception. *)

val rpc : t -> Protocol.request -> Protocol.reply
(** {!send} then {!recv}; a closed stream surfaces as an [Error] reply. *)

val solve :
  t ->
  ?id:string ->
  ?lang:Protocol.lang ->
  ?method_:Sepsat.Decide.method_ ->
  ?timeout_s:float ->
  ?trace:Protocol.trace_ctx ->
  string ->
  Protocol.reply
(** [trace] propagates an existing trace context to the server (a client
    that is itself a hop, or a test); without it the server mints its
    own rid and the reply carries no trace. *)

val ping : t -> bool

val stats : t -> Sepsat_util.Json.t option
(** [None] when the server answered anything but a [stats] reply. *)

val metrics : t -> string option
(** The server's Prometheus exposition document, via the protocol's
    [metrics] op. [None] on any other reply. *)

val dump : t -> string option
(** The server's flight-recorder contents as one JSON document, via the
    protocol's [dump] op. [None] on any other reply. *)

val shutdown : t -> unit
(** Ask the server to stop; waits for the [bye]. *)

val close : t -> unit

val with_retry :
  ?attempts:int ->
  ?base_s:float ->
  ?cap_s:float ->
  path:string ->
  t ->
  (t -> Protocol.reply) ->
  t * Protocol.reply
(** [with_retry ~path t f] runs [f] (typically a {!solve}) and retries
    transient failures — [busy] replies, and dead connections (including
    reconnecting through [path], e.g. across a fleet backend restart) —
    with jittered exponential backoff: delay [min cap_s (base_s * 2^k)],
    jittered to 50–100%. Defaults: 8 attempts, 0.1 s base, 2 s cap (worst
    case ≈ 10 s, enough to ride out a backend respawn). Returns the
    session to keep using (it may be a fresh reconnect) and the final
    reply, which is the last transient failure when attempts run out.
    [~attempts:1] disables retrying. *)
