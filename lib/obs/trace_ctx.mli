(** Request-scoped ambient trace context.

    Carries the request id ([rid]) and the stack of currently-open span
    names in domain-local storage. {!Obs.span} tags recorded spans with
    the ambient rid and maintains the path; everything else reads it.

    Domains start with an empty context — code that hands work to another
    domain passes the rid and path along with it, and the receiving domain
    rebuilds the context with {!make} and wraps the work in {!with_ctx} (as
    the serve engine's workers do per job), so the request identity
    survives the crossing. *)

type t
(** Immutable snapshot of a context (rid + open-span path). *)

val none : t
(** The empty context: no rid, no open spans. *)

val make : rid:string -> ?path:string list -> unit -> t
(** Build a context from parts received over the wire — how a fleet shard
    adopts the router-minted trace: [make ~rid ~path ()] with [path]
    outermost-first (e.g. [["router"]]), installed via {!with_ctx}, makes
    every span, flight record, log line and exemplar under it carry the
    fleet-wide rid. *)

val with_ctx : t -> (unit -> 'a) -> 'a
(** [with_ctx ctx f] runs [f] with [ctx] installed as the ambient context,
    restoring the previous context afterwards (also on exceptions). *)

val rid : unit -> string
(** The ambient request id; [""] outside any request. *)

val path : unit -> string list
(** Names of the currently-open spans, outermost first. *)

val path_string : unit -> string
(** {!path} joined with ["/"]; [""] when no span is open. *)

val push : string -> unit
(** Push a span name onto the ambient path. Called by {!Obs.span} — user
    code should not need this. *)

val pop : unit -> unit
(** Pop the innermost span name; no-op on an empty path. *)
