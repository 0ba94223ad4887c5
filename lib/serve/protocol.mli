(** Wire types of the JSON-lines serving protocol.

    One JSON object per line in both directions; no framing beyond the
    newline, no binary. Requests select an operation with ["op"] (default
    ["solve"]) and carry a client-chosen ["id"] echoed verbatim on the
    matching reply, so one connection can pipeline requests and match
    out-of-order replies. See DESIGN.md §11 for the full specification.

    Requests:
    {v
    {"op":"solve","id":"r1","lang":"suf","formula":"(= x x)",
     "method":"hybrid","timeout_s":5}
    {"op":"ping","id":"p"}    {"op":"stats","id":"s"}    {"op":"shutdown"}
    v}

    Replies:
    {v
    {"id":"r1","status":"ok","verdict":"valid","origin":"solved",
     "cached":false,"digest":"...","witness":null,"solve_ms":12.3,
     "time_ms":12.5}
    {"id":"r1","status":"busy"}
    {"id":"r1","status":"error","reason":"parse error: ..."}
    v} *)

type lang = Suf | Smt

val lang_of_string : string -> lang option
(** ["suf"] or ["smt"]. *)

val lang_to_string : lang -> string

type trace_ctx = {
  tc_rid : string;  (** fleet-wide request id, e.g. ["fl-3121-17"] *)
  tc_path : string list;  (** hops crossed so far, outermost first *)
}
(** Dapper-style trace context on a solve request — wire field
    ["trace":{"rid":…,"path":[…]}]. The fleet router mints one per client
    request; a shard receiving it adopts the rid as its ambient
    {!Sepsat_obs.Trace_ctx}, so spans, flight records, logs and exemplars
    on both sides of the wire answer to the same id. Absent means the
    receiver mints its own rid — the pre-trace behaviour, so old clients
    and servers interoperate unchanged. *)

type solve_req = {
  sq_id : string;
  sq_lang : lang;
  sq_text : string;  (** formula (SUF s-expression) or SMT-LIB 2 script *)
  sq_method : Sepsat.Decide.method_;
  sq_timeout_s : float option;  (** [None]: the server's default budget *)
  sq_trace : trace_ctx option;
}

type verdict = Valid | Invalid | Unknown of string

type warm_req = {
  wr_id : string;
  wr_key : string;  (** full cache key: [digest ^ "|" ^ method] *)
  wr_verdict : verdict;  (** decisive only; [Unknown] is rejected *)
  wr_witness : string option;
  wr_solve_ms : float;
}

and request =
  | Solve of solve_req
  | Ping of string  (** payload: id *)
  | Stats_req of string
  | Metrics_req of string
      (** ["op":"metrics"] — a Prometheus exposition snapshot over the
          protocol (the HTTP listener serves the same document) *)
  | Dump_req of string
      (** ["op":"dump"] — the flight recorder's current contents, for
          debugging a live server without signals or filesystem access *)
  | Shutdown of string
  | Warm of warm_req
      (** ["op":"warm"] — seed the server's result cache with an
          already-computed decisive verdict without solving. The fleet
          router replays its persistent verdict log through this op when a
          backend (re)starts, so a fresh process begins life with the warm
          working set its ring arc earned before the restart. *)

val method_to_wire : Sepsat.Decide.method_ -> string
(** Inverse of [Decide.method_of_string] — ["hybrid:700"], not the
    pretty-printer's ["HYBRID(700)"]. Also the method component of cache
    keys. *)

val request_of_line : string -> (request, string) result
(** Parse one protocol line. Missing ["id"] defaults to [""]; missing
    ["op"] defaults to solve; unknown fields are ignored (forward
    compatibility). *)

val request_to_line : request -> string
(** One line, no trailing newline. *)

(** {1 Replies} *)

val verdict_of_sep : Sepsat_sep.Verdict.t -> verdict
(** Forgets the falsifying assignment — the wire carries its digest
    instead. *)

val verdict_to_string : verdict -> string
(** ["valid"], ["invalid"], ["unknown"]. *)

type origin =
  | Solved  (** ran the full pipeline *)
  | Cache_hit  (** answered from the result cache *)
  | Joined  (** deduplicated onto an identical in-flight solve *)

val origin_to_string : origin -> string

type reply_trace = {
  rt_rid : string;
  rt_served_by : string;
      (** the serving shard's [backend] const label, ["cache"] for a
          router disk-cache hit, [""] when unknown *)
  rt_hops : (string * float) list;
      (** (hop name, milliseconds). A fleet reply carries the full
          six-hop breakdown [router.parse]; [router.queue]; [wire];
          [shard.queue]; [shard.solve]; [reply], which sums to
          [sv_time_ms] by construction; a shard's reply to the router
          carries its local two ([shard.queue]; [shard.solve]). *)
  rt_recv_wall : float;  (** request arrival, replier's wall clock *)
  rt_recv_mono : float;  (** the same instant, replier's {!Sepsat_obs.Clock} *)
  rt_send_wall : float;  (** reply emission, replier's wall clock *)
  rt_send_mono : float;
}
(** Trace information on a reply — wire field ["trace":{…}]. The recv and
    send stamps are (wall, mono) {!Sepsat_obs.Clock.pair}s from the
    {e replier's} clocks; the receiver derives wire time as its own
    round-trip minus the replier's mono residency, so the two processes'
    wall clocks never need to agree. Present only when the request
    carried a {!trace_ctx} (or came through the fleet router). *)

type solved = {
  sv_id : string;
  sv_verdict : verdict;
  sv_origin : origin;
  sv_digest : string;  (** {!Sepsat_suf.Ast.digest} of the parsed formula *)
  sv_witness : string option;
      (** digest of the falsifying assignment, [Invalid] only *)
  sv_solve_ms : float;
      (** pipeline time of the run that produced the verdict (a cache hit
          reports the original solve's time) *)
  sv_time_ms : float;
      (** this request's wall time inside the replier — engine time from
          a single server, full router end-to-end time from a fleet *)
  sv_trace : reply_trace option;
}

type reply =
  | Ok_solve of solved
  | Warmed of string  (** warm accepted; payload: id *)
  | Busy of string  (** payload: id; the request queue was full — shed *)
  | Error of string * string  (** id, reason *)
  | Pong of string
  | Stats of string * Sepsat_util.Json.t
  | Metrics of string * string
      (** id, Prometheus text-format document. On the wire the document is
          one JSON string field ["prometheus"] (newlines escaped), next to
          a ["content_type"] field. *)
  | Dump of string * string
      (** id, flight-recorder JSON document (see
          {!Sepsat_obs.Flight.to_json}), carried as one JSON string field
          ["flight"] so the reply stays a single line. *)
  | Bye of string  (** shutdown acknowledged *)

val reply_to_line : reply -> string

val reply_of_line : string -> (reply, string) result

val reply_id : reply -> string
