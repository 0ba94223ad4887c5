module Json = Sepsat_util.Json
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict

type lang = Suf | Smt

let lang_of_string = function
  | "suf" -> Some Suf
  | "smt" -> Some Smt
  | _ -> None

let lang_to_string = function Suf -> "suf" | Smt -> "smt"

(* Dapper-style trace context carried on solve requests: the fleet
   router mints one rid per client request and every process it crosses
   adopts it, so spans, flight records, logs and exemplars from router
   and shard all answer to the same id. Absent on the wire means the
   receiver mints its own rid, exactly the pre-trace behaviour. *)
type trace_ctx = { tc_rid : string; tc_path : string list }

type solve_req = {
  sq_id : string;
  sq_lang : lang;
  sq_text : string;
  sq_method : Decide.method_;
  sq_timeout_s : float option;
  sq_trace : trace_ctx option;
}

type verdict = Valid | Invalid | Unknown of string

let verdict_to_string = function
  | Valid -> "valid"
  | Invalid -> "invalid"
  | Unknown _ -> "unknown"

type warm_req = {
  wr_id : string;
  wr_key : string;
  wr_verdict : verdict;
  wr_witness : string option;
  wr_solve_ms : float;
}

and request =
  | Solve of solve_req
  | Ping of string
  | Stats_req of string
  | Metrics_req of string
  | Dump_req of string
  | Shutdown of string
  | Warm of warm_req

(* pp_method prints "HYBRID(700)" or "HYBRID:100"; the wire uses the method_of_string
   syntax so requests survive a print/parse round trip. *)
let method_to_wire = function
  | Decide.Sd -> "sd"
  | Decide.Eij -> "eij"
  | Decide.Hybrid_default -> "hybrid"
  | Decide.Hybrid_at t -> Printf.sprintf "hybrid:%d" t
  | Decide.Svc_baseline -> "svc"
  | Decide.Lazy_baseline -> "lazy"

let request_of_line line =
  match Json.parse line with
  | Error e -> Result.Error e
  | Ok j -> (
    let id = Option.value (Json.mem_str "id" j) ~default:"" in
    match Option.value (Json.mem_str "op" j) ~default:"solve" with
    | "ping" -> Ok (Ping id)
    | "stats" -> Ok (Stats_req id)
    | "metrics" -> Ok (Metrics_req id)
    | "dump" -> Ok (Dump_req id)
    | "shutdown" -> Ok (Shutdown id)
    | "warm" -> (
      match Json.mem_str "key" j with
      | None -> Result.Error "warm request lacks a \"key\" field"
      | Some key -> (
        match Json.mem_str "verdict" j with
        | Some "valid" | Some "invalid" ->
          Ok
            (Warm
               {
                 wr_id = id;
                 wr_key = key;
                 wr_verdict =
                   (if Json.mem_str "verdict" j = Some "valid" then Valid
                    else Invalid);
                 wr_witness = Json.mem_str "witness" j;
                 wr_solve_ms =
                   Option.value (Json.mem_num "solve_ms" j) ~default:0.;
               })
        | _ -> Result.Error "warm verdict must be \"valid\" or \"invalid\""))
    | "solve" -> (
      match Json.mem_str "formula" j with
      | None -> Result.Error "solve request lacks a \"formula\" field"
      | Some text -> (
        let lang_s = Option.value (Json.mem_str "lang" j) ~default:"suf" in
        match lang_of_string lang_s with
        | None -> Result.Error (Printf.sprintf "unknown lang %S" lang_s)
        | Some lang -> (
          let method_s =
            Option.value (Json.mem_str "method" j) ~default:"hybrid"
          in
          match Decide.method_of_string method_s with
          | None -> Result.Error (Printf.sprintf "unknown method %S" method_s)
          | Some m ->
            let sq_trace =
              match Json.member "trace" j with
              | Some t -> (
                match Json.mem_str "rid" t with
                | None -> None
                | Some tc_rid ->
                  let tc_path =
                    match Json.member "path" t with
                    | Some (Json.Arr l) -> List.filter_map Json.to_str l
                    | _ -> []
                  in
                  Some { tc_rid; tc_path })
              | None -> None
            in
            Ok
              (Solve
                 {
                   sq_id = id;
                   sq_lang = lang;
                   sq_text = text;
                   sq_method = m;
                   sq_timeout_s = Json.mem_num "timeout_s" j;
                   sq_trace;
                 }))))
    | op -> Result.Error (Printf.sprintf "unknown op %S" op))

let request_to_line = function
  | Ping id -> Json.to_string (Obj [ ("op", Str "ping"); ("id", Str id) ])
  | Stats_req id ->
    Json.to_string (Obj [ ("op", Str "stats"); ("id", Str id) ])
  | Metrics_req id ->
    Json.to_string (Obj [ ("op", Str "metrics"); ("id", Str id) ])
  | Dump_req id -> Json.to_string (Obj [ ("op", Str "dump"); ("id", Str id) ])
  | Shutdown id ->
    Json.to_string (Obj [ ("op", Str "shutdown"); ("id", Str id) ])
  | Warm w ->
    Json.to_string
      (Obj
         [
           ("op", Str "warm");
           ("id", Str w.wr_id);
           ("key", Str w.wr_key);
           ("verdict", Str (verdict_to_string w.wr_verdict));
           ( "witness",
             match w.wr_witness with Some s -> Json.Str s | None -> Json.Null
           );
           ("solve_ms", Num w.wr_solve_ms);
         ])
  | Solve r ->
    let base =
      [
        ("op", Json.Str "solve");
        ("id", Json.Str r.sq_id);
        ("lang", Json.Str (lang_to_string r.sq_lang));
        ("formula", Json.Str r.sq_text);
        ("method", Json.Str (method_to_wire r.sq_method));
      ]
    in
    let fields =
      match r.sq_timeout_s with
      | None -> base
      | Some t -> base @ [ ("timeout_s", Json.Num t) ]
    in
    let fields =
      match r.sq_trace with
      | None -> fields
      | Some tc ->
        fields
        @ [
            ( "trace",
              Json.Obj
                [
                  ("rid", Json.Str tc.tc_rid);
                  ( "path",
                    Json.Arr (List.map (fun s -> Json.Str s) tc.tc_path) );
                ] );
          ]
    in
    Json.to_string (Obj fields)

(* -- Replies --------------------------------------------------------------- *)

let verdict_of_sep = function
  | Verdict.Valid -> Valid
  | Verdict.Invalid _ -> Invalid
  | Verdict.Unknown why -> Unknown why

type origin = Solved | Cache_hit | Joined

let origin_to_string = function
  | Solved -> "solved"
  | Cache_hit -> "cache"
  | Joined -> "joined"

let origin_of_string = function
  | "solved" -> Some Solved
  | "cache" -> Some Cache_hit
  | "joined" -> Some Joined
  | _ -> None

(* The trace a reply carries back: who served it, the hop-latency
   breakdown, and this replier's clock anchor (recv/send as wall+mono
   pairs sampled with Clock.pair). The receiver computes wire time as
   rtt minus the replier's own mono residency (send_mono - recv_mono) —
   only same-process mono differences, so clock skew cancels out. *)
type reply_trace = {
  rt_rid : string;
  rt_served_by : string;  (* backend label, "cache", or "" *)
  rt_hops : (string * float) list;  (* (hop name, milliseconds) *)
  rt_recv_wall : float;
  rt_recv_mono : float;
  rt_send_wall : float;
  rt_send_mono : float;
}

type solved = {
  sv_id : string;
  sv_verdict : verdict;
  sv_origin : origin;
  sv_digest : string;
  sv_witness : string option;
  sv_solve_ms : float;
  sv_time_ms : float;
  sv_trace : reply_trace option;
}

type reply =
  | Ok_solve of solved
  | Warmed of string
  | Busy of string
  | Error of string * string
  | Pong of string
  | Stats of string * Json.t
  | Metrics of string * string
  | Dump of string * string
  | Bye of string

let reply_to_line = function
  | Busy id -> Json.to_string (Obj [ ("id", Str id); ("status", Str "busy") ])
  | Warmed id ->
    Json.to_string (Obj [ ("id", Str id); ("status", Str "warmed") ])
  | Error (id, reason) ->
    Json.to_string
      (Obj [ ("id", Str id); ("status", Str "error"); ("reason", Str reason) ])
  | Pong id -> Json.to_string (Obj [ ("id", Str id); ("status", Str "pong") ])
  | Bye id -> Json.to_string (Obj [ ("id", Str id); ("status", Str "bye") ])
  | Stats (id, j) ->
    Json.to_string
      (Obj [ ("id", Str id); ("status", Str "stats"); ("stats", j) ])
  | Metrics (id, body) ->
    (* The exposition document travels as one JSON string; line breaks
       survive as \n escapes, so the reply is still one protocol line. *)
    Json.to_string
      (Obj
         [
           ("id", Str id);
           ("status", Str "metrics");
           ("content_type", Str Sepsat_obs.Prom.content_type);
           ("prometheus", Str body);
         ])
  | Dump (id, body) ->
    (* Like Metrics: the flight-recorder JSON document travels as one
       string field, keeping the reply a single protocol line. *)
    Json.to_string
      (Obj [ ("id", Str id); ("status", Str "dump"); ("flight", Str body) ])
  | Ok_solve s ->
    let fields =
      [
        ("id", Json.Str s.sv_id);
        ("status", Json.Str "ok");
        ("verdict", Json.Str (verdict_to_string s.sv_verdict));
      ]
      @ (match s.sv_verdict with
        | Unknown why -> [ ("reason", Json.Str why) ]
        | Valid | Invalid -> [])
      @ [
          ("origin", Json.Str (origin_to_string s.sv_origin));
          ("cached", Json.Bool (s.sv_origin <> Solved));
          ("digest", Json.Str s.sv_digest);
          ( "witness",
            match s.sv_witness with Some w -> Json.Str w | None -> Json.Null );
          ("solve_ms", Json.Num s.sv_solve_ms);
          ("time_ms", Json.Num s.sv_time_ms);
        ]
      @
      match s.sv_trace with
      | None -> []
      | Some tr ->
        [
          ( "trace",
            Json.Obj
              [
                ("rid", Json.Str tr.rt_rid);
                ("served_by", Json.Str tr.rt_served_by);
                ( "hops",
                  Json.Arr
                    (List.map
                       (fun (name, ms) ->
                         Json.Arr [ Json.Str name; Json.Num ms ])
                       tr.rt_hops) );
                ("recv_wall", Json.Num tr.rt_recv_wall);
                ("recv_mono", Json.Num tr.rt_recv_mono);
                ("send_wall", Json.Num tr.rt_send_wall);
                ("send_mono", Json.Num tr.rt_send_mono);
              ] );
        ]
    in
    Json.to_string (Obj fields)

let reply_of_line line =
  match Json.parse line with
  | Result.Error e -> Result.Error e
  | Ok j -> (
    let id = Option.value (Json.mem_str "id" j) ~default:"" in
    match Json.mem_str "status" j with
    | None -> Result.Error "reply lacks a \"status\" field"
    | Some "busy" -> Ok (Busy id)
    | Some "warmed" -> Ok (Warmed id)
    | Some "pong" -> Ok (Pong id)
    | Some "bye" -> Ok (Bye id)
    | Some "error" ->
      Ok
        (Error (id, Option.value (Json.mem_str "reason" j) ~default:"unknown"))
    | Some "stats" ->
      Ok (Stats (id, Option.value (Json.member "stats" j) ~default:Json.Null))
    | Some "metrics" ->
      Ok
        (Metrics (id, Option.value (Json.mem_str "prometheus" j) ~default:""))
    | Some "dump" ->
      Ok (Dump (id, Option.value (Json.mem_str "flight" j) ~default:""))
    | Some "ok" -> (
      let verdict =
        match Json.mem_str "verdict" j with
        | Some "valid" -> Some Valid
        | Some "invalid" -> Some Invalid
        | Some "unknown" ->
          Some
            (Unknown (Option.value (Json.mem_str "reason" j) ~default:""))
        | _ -> None
      in
      match verdict with
      | None -> Result.Error "ok reply lacks a valid \"verdict\" field"
      | Some sv_verdict ->
        let sv_origin =
          match Option.bind (Json.mem_str "origin" j) origin_of_string with
          | Some o -> o
          | None ->
            if Option.value (Json.mem_bool "cached" j) ~default:false then
              Cache_hit
            else Solved
        in
        let sv_trace =
          match Json.member "trace" j with
          | Some t -> (
            match Json.mem_str "rid" t with
            | None -> None
            | Some rt_rid ->
              let rt_hops =
                match Json.member "hops" t with
                | Some (Json.Arr l) ->
                  List.filter_map
                    (function
                      | Json.Arr [ Json.Str name; Json.Num ms ] ->
                        Some (name, ms)
                      | _ -> None)
                    l
                | _ -> []
              in
              let num k = Option.value (Json.mem_num k t) ~default:0. in
              Some
                {
                  rt_rid;
                  rt_served_by =
                    Option.value (Json.mem_str "served_by" t) ~default:"";
                  rt_hops;
                  rt_recv_wall = num "recv_wall";
                  rt_recv_mono = num "recv_mono";
                  rt_send_wall = num "send_wall";
                  rt_send_mono = num "send_mono";
                })
          | None -> None
        in
        Ok
          (Ok_solve
             {
               sv_id = id;
               sv_verdict;
               sv_origin;
               sv_digest = Option.value (Json.mem_str "digest" j) ~default:"";
               sv_witness = Json.mem_str "witness" j;
               sv_solve_ms =
                 Option.value (Json.mem_num "solve_ms" j) ~default:0.;
               sv_time_ms =
                 Option.value (Json.mem_num "time_ms" j) ~default:0.;
               sv_trace;
             }))
    | Some other -> Result.Error (Printf.sprintf "unknown status %S" other))

let reply_id = function
  | Ok_solve s -> s.sv_id
  | Warmed id
  | Busy id
  | Error (id, _)
  | Pong id
  | Stats (id, _)
  | Metrics (id, _)
  | Dump (id, _)
  | Bye id ->
    id
