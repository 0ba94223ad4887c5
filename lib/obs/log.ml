(* Leveled JSON-lines structured logger with request correlation.

   Obs.log prints human lines; this module prints machine lines — one JSON
   object per line, so `grep rq-17 server.log` reconstructs a request's
   whole path (request → shed/hit/solve/deadline → reply) and `jq` can
   aggregate. Design points:

   - Whole lines: each event is rendered to one complete string before the
     sink is called under one mutex, so lines from concurrent worker
     domains never interleave mid-line, and rendering takes no lock. A
     sink that raises — a closed log file, a full pipe — loses only its
     own line; the exception propagates to the caller.
   - Ambient context: [with_fields] pushes key/values (typically the
     correlation id) onto a domain-local stack; every event emitted inside
     carries them. That is how one rid threads through the engine's
     parse/cache/solve path without plumbing it into each call. *)

module Json = Sepsat_util.Json

type value = S of string | I of int | F of float | B of bool

type field = string * value

let enabled_ = Atomic.make false

let level_ = Atomic.make Obs.Info

let rank = function Obs.Quiet -> 0 | Obs.Info -> 1 | Obs.Debug -> 2

let sink_mu = Mutex.create ()

let default_sink line =
  output_string stderr line;
  output_char stderr '\n';
  flush stderr

let sink = ref default_sink

let enable ?(level = Obs.Info) ?sink:(s = default_sink) () =
  Mutex.protect sink_mu (fun () -> sink := s);
  Atomic.set level_ level;
  Atomic.set enabled_ true

let disable () = Atomic.set enabled_ false

let enabled () = Atomic.get enabled_

let set_level l = Atomic.set level_ l

(* Correlation ids: a process-global counter, so every minted id is unique
   within one server's log stream and cheap enough to mint per request. *)
let mint_counter = Atomic.make 0

let mint prefix =
  Printf.sprintf "%s-%d" prefix (1 + Atomic.fetch_and_add mint_counter 1)

(* -- Ambient per-domain context ------------------------------------------- *)

let ctx_key : field list Domain.DLS.key = Domain.DLS.new_key (fun () -> [])

let with_fields fields f =
  let old = Domain.DLS.get ctx_key in
  Domain.DLS.set ctx_key (old @ fields);
  Fun.protect ~finally:(fun () -> Domain.DLS.set ctx_key old) f

let current_fields () = Domain.DLS.get ctx_key

(* -- JSON rendering -------------------------------------------------------- *)

let to_json = function
  | S s -> Json.Str s
  | I i -> Json.Num (float_of_int i)
  | F f -> Json.Num f
  | B b -> Json.Bool b

let level_name = function
  | Obs.Quiet -> "quiet"
  | Obs.Info -> "info"
  | Obs.Debug -> "debug"

(* The rid the store should file a log record under: an explicit "rid"
   field wins, then the ambient log context; otherwise Obs.record falls
   back to Trace_ctx. *)
let field_rid fields =
  let pick fs =
    match List.assoc_opt "rid" fs with Some (S r) -> Some r | _ -> None
  in
  match pick fields with
  | Some _ as r -> r
  | None -> pick (Domain.DLS.get ctx_key)

(* Record payloads are strings: a string field as is, anything else as
   its JSON text. *)
let value_string = function S s -> s | v -> Json.to_string (to_json v)

let event ?(level = Obs.Info) name fields =
  (* Emitted lines also land in the store (when that is on) even if the
     log sink itself is disabled — a server run without --log-json still
     has its recent request history in a flight dump. *)
  let to_sink =
    Atomic.get enabled_ && level <> Obs.Quiet
    && rank level <= rank (Atomic.get level_)
  in
  let to_store = Obs.enabled () && level <> Obs.Quiet in
  if to_sink || to_store then begin
    if to_store then
      Obs.record ?rid:(field_rid fields)
        ~data:(List.map (fun (k, v) -> (k, value_string v)) fields)
        Obs.Log name;
    if to_sink then begin
      (* Ambient context after the explicit fields; a context key shadowed
         by an explicit field is dropped so lookups (first occurrence wins)
         see the more specific value. *)
      let ambient =
        List.filter
          (fun (k, _) -> not (List.mem_assoc k fields))
          (Domain.DLS.get ctx_key)
      in
      let line =
        Json.to_string
          (Json.Obj
             (("ts", Json.Num (Unix.gettimeofday ()))
             :: ("level", Json.Str (level_name level))
             :: ("event", Json.Str name)
             :: List.map (fun (k, v) -> (k, to_json v)) (fields @ ambient)))
      in
      Mutex.protect sink_mu (fun () -> !sink line)
    end
  end
