(* Tests for the serving subsystem: JSON codec, wire protocol, bounded
   queue, sharded LRU cache with single-flight deduplication, the engine
   (caching correctness against a fresh [Decide.decide], shedding,
   deadlines) and the socket/channel protocol front ends. *)

module Json = Sepsat_util.Json
module Protocol = Sepsat_serve.Protocol
module Bqueue = Sepsat_serve.Bqueue
module Cache = Sepsat_serve.Cache
module Engine = Sepsat_serve.Engine
module Server = Sepsat_serve.Server
module Session = Sepsat_serve.Session
module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Decide = Sepsat.Decide
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline
module Random_formula = Sepsat_workloads.Random_formula
module Loadgen = Sepsat_harness.Loadgen
module Trace_ctx = Sepsat_obs.Trace_ctx

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let rec json_eq a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Num x, Json.Num y -> x = y
  | Json.Str x, Json.Str y -> x = y
  | Json.Arr x, Json.Arr y ->
    List.length x = List.length y && List.for_all2 json_eq x y
  | Json.Obj x, Json.Obj y ->
    List.length x = List.length y
    && List.for_all2
         (fun (k1, v1) (k2, v2) -> k1 = k2 && json_eq v1 v2)
         x y
  | _ -> false

let test_json_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Bool false;
      Json.Num 0.;
      Json.Num (-42.);
      Json.Num 3.25;
      Json.Num 1e100;
      Json.Str "";
      Json.Str "plain";
      Json.Str "quotes \" and \\ and \ncontrol \t bytes";
      Json.Arr [];
      Json.Arr [ Json.Num 1.; Json.Str "two"; Json.Null ];
      Json.Obj [];
      Json.Obj
        [
          ("k", Json.Str "v");
          ("nested", Json.Obj [ ("a", Json.Arr [ Json.Bool false ]) ]);
        ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      match Json.parse s with
      | Ok v' ->
        Alcotest.(check bool) ("roundtrip " ^ s) true (json_eq v v')
      | Error e -> Alcotest.failf "reparse of %s failed: %s" s e)
    values

let test_json_parse () =
  let ok s = Result.is_ok (Json.parse s)
  and err s = Result.is_error (Json.parse s) in
  Alcotest.(check bool) "whitespace" true (ok " { \"a\" : [ 1 , 2 ] } ");
  Alcotest.(check bool) "unicode escape" true
    (match Json.parse "\"\\u0041\\u00e9\"" with
    | Ok (Json.Str s) -> s = "A\xc3\xa9"
    | _ -> false);
  Alcotest.(check bool) "surrogate pair" true
    (match Json.parse "\"\\ud83d\\ude00\"" with
    | Ok (Json.Str s) -> String.length s = 4
    | _ -> false);
  Alcotest.(check bool) "exponent" true
    (match Json.parse "1.5e2" with Ok (Json.Num n) -> n = 150. | _ -> false);
  Alcotest.(check bool) "trailing garbage" true (err "{} x");
  Alcotest.(check bool) "bare word" true (err "verdict");
  Alcotest.(check bool) "unterminated string" true (err "\"abc");
  Alcotest.(check bool) "trailing comma" true (err "[1,]");
  Alcotest.(check bool) "empty input" true (err "");
  Alcotest.(check bool) "integral floats as ints" true
    (Json.to_string (Json.Num 42.) = "42")

let deep_array depth = String.make depth '[' ^ String.make depth ']'

let contains hay needle =
  let n = String.length needle in
  let rec go i =
    i + n <= String.length hay && (String.sub hay i n = needle || go (i + 1))
  in
  go 0

let too_deep = Printf.sprintf "nesting deeper than %d" Json.max_depth

(* Nesting past [Json.max_depth] is refused, not recursed into: a
   well-formed but hostile document must not exhaust the stack. *)
let test_json_depth_bound () =
  let refused text =
    match Json.parse text with Error e -> contains e too_deep | Ok _ -> false
  in
  Alcotest.(check bool) "max_depth levels parse" true
    (Result.is_ok (Json.parse (deep_array Json.max_depth)));
  Alcotest.(check bool) "one level more is refused" true
    (refused (deep_array (Json.max_depth + 1)));
  Alcotest.(check bool) "10,000 levels are refused" true
    (refused (deep_array 10_000));
  Alcotest.(check bool) "objects count too" true
    (refused
       (String.concat "" (List.init 200 (fun _ -> "{\"a\":"))
       ^ "1" ^ String.make 200 '}'))

(* ------------------------------------------------------------------ *)
(* Protocol                                                            *)

let test_protocol_requests () =
  let reqs =
    [
      Protocol.Solve
        {
          Protocol.sq_id = "r1";
          sq_lang = Protocol.Suf;
          sq_text = "(= x y)";
          sq_method = Decide.Hybrid_at 700;
          sq_timeout_s = Some 2.5;
          sq_trace = None;
        };
      Protocol.Solve
        {
          Protocol.sq_id = "";
          sq_lang = Protocol.Smt;
          sq_text = "(assert true)(check-sat)";
          sq_method = Decide.Hybrid_default;
          sq_timeout_s = None;
          sq_trace =
            Some
              {
                Protocol.tc_rid = "fl-1-7";
                tc_path = [ "router" ];
              };
        };
      Protocol.Ping "p1";
      Protocol.Stats_req "s1";
      Protocol.Shutdown "bye-now";
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.request_to_line r in
      match Protocol.request_of_line line with
      | Ok r' ->
        Alcotest.(check string) ("request roundtrip " ^ line) line
          (Protocol.request_to_line r')
      | Error e -> Alcotest.failf "reparse of %s failed: %s" line e)
    reqs;
  (* defaults: op defaults to solve, id to "" *)
  (match Protocol.request_of_line "{\"formula\":\"(= x x)\"}" with
  | Ok (Protocol.Solve q) ->
    Alcotest.(check string) "default id" "" q.Protocol.sq_id;
    Alcotest.(check string) "text" "(= x x)" q.Protocol.sq_text
  | _ -> Alcotest.fail "expected default solve");
  Alcotest.(check bool) "malformed line" true
    (Result.is_error (Protocol.request_of_line "not json"));
  (* every method's wire name parses back to it; the match keeps the list
     in step with the constructors *)
  List.iter
    (fun m ->
      (match m with
      | Decide.Sd | Decide.Eij | Decide.Hybrid_default | Decide.Hybrid_at _
      | Decide.Svc_baseline | Decide.Lazy_baseline | Decide.Portfolio -> ());
      let wire = Protocol.method_to_wire m in
      Alcotest.(check bool) ("method wire name " ^ wire) true
        (Decide.method_of_string wire = Some m))
    Decide.
      [
        Sd;
        Eij;
        Hybrid_default;
        Hybrid_at 450;
        Svc_baseline;
        Lazy_baseline;
        Portfolio;
      ];
  List.iter
    (fun m ->
      Alcotest.(check (result reject string)) ("removed method " ^ m)
        (Error (Printf.sprintf "unknown method %S" m))
        (Protocol.request_of_line
           (Printf.sprintf "{\"formula\":\"(= x x)\",\"method\":%S}" m)))
    [ "cube"; "components" ]

let test_protocol_replies () =
  let replies =
    [
      Protocol.Ok_solve
        {
          Protocol.sv_id = "r1";
          sv_verdict = Protocol.Valid;
          sv_origin = Protocol.Solved;
          sv_digest = String.make 32 'a';
          sv_witness = None;
          sv_solve_ms = 12.5;
          sv_time_ms = 13.;
          sv_trace = None;
        };
      Protocol.Ok_solve
        {
          Protocol.sv_id = "r2";
          sv_verdict = Protocol.Invalid;
          sv_origin = Protocol.Cache_hit;
          sv_digest = String.make 32 'b';
          sv_witness = Some (String.make 32 'c');
          sv_solve_ms = 1.;
          sv_time_ms = 0.25;
          sv_trace =
            Some
              {
                Protocol.rt_rid = "fl-1-7";
                rt_served_by = "2";
                rt_hops =
                  [ ("shard.queue", 0.5); ("shard.solve", 1.25) ];
                rt_recv_wall = 1000.5;
                rt_recv_mono = 1000.5;
                rt_send_wall = 1000.625;
                rt_send_mono = 1000.625;
              };
        };
      Protocol.Ok_solve
        {
          Protocol.sv_id = "r3";
          sv_verdict = Protocol.Unknown "timeout";
          sv_origin = Protocol.Joined;
          sv_digest = String.make 32 'd';
          sv_witness = None;
          sv_solve_ms = 0.;
          sv_time_ms = 0.;
          sv_trace = None;
        };
      Protocol.Busy "r4";
      Protocol.Error ("r5", "parse error: oops");
      Protocol.Pong "p";
      Protocol.Stats ("s", Json.Obj [ ("requests", Json.Num 3.) ]);
      Protocol.Bye "q";
    ]
  in
  List.iter
    (fun r ->
      let line = Protocol.reply_to_line r in
      match Protocol.reply_of_line line with
      | Ok r' ->
        Alcotest.(check string) ("reply roundtrip " ^ line) line
          (Protocol.reply_to_line r')
      | Error e -> Alcotest.failf "reparse of %s failed: %s" line e)
    replies;
  Alcotest.(check string) "reply_id" "r4"
    (Protocol.reply_id (Protocol.Busy "r4"))

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)

let test_bqueue_bounds () =
  let q = Bqueue.create ~capacity:2 in
  Alcotest.(check bool) "push 1" true (Bqueue.try_push q 1);
  Alcotest.(check bool) "push 2" true (Bqueue.try_push q 2);
  Alcotest.(check bool) "push 3 sheds" false (Bqueue.try_push q 3);
  Alcotest.(check int) "depth" 2 (Bqueue.length q);
  Alcotest.(check (option int)) "fifo 1" (Some 1) (Bqueue.pop q);
  Alcotest.(check bool) "room again" true (Bqueue.try_push q 4);
  Bqueue.close q;
  Alcotest.(check bool) "closed rejects" false (Bqueue.try_push q 5);
  Alcotest.(check bool) "closed blocks reject" false (Bqueue.push q 5);
  Alcotest.(check (option int)) "drains 2" (Some 2) (Bqueue.pop q);
  Alcotest.(check (option int)) "drains 4" (Some 4) (Bqueue.pop q);
  Alcotest.(check (option int)) "then empty" None (Bqueue.pop q)

let test_bqueue_concurrent () =
  let q = Bqueue.create ~capacity:4 in
  let n = 500 in
  let producers =
    List.init 2 (fun p ->
        Domain.spawn (fun () ->
            for i = 0 to n - 1 do
              ignore (Bqueue.push q ((p * n) + i))
            done))
  in
  let consumers =
    List.init 2 (fun _ ->
        Domain.spawn (fun () ->
            let rec loop acc =
              match Bqueue.pop q with
              | Some v -> loop (v :: acc)
              | None -> acc
            in
            loop []))
  in
  List.iter Domain.join producers;
  Bqueue.close q;
  let received = List.concat_map Domain.join consumers in
  Alcotest.(check int) "all items received" (2 * n) (List.length received);
  Alcotest.(check int) "no duplicates" (2 * n)
    (List.length (List.sort_uniq compare received))

(* ------------------------------------------------------------------ *)
(* Cache                                                               *)

let test_cache_lru () =
  (* one shard makes the eviction order deterministic *)
  let c = Cache.create ~shards:1 ~capacity:2 () in
  Cache.add c "a" 1;
  Cache.add c "b" 2;
  (* touching [a] makes [b] the least recently used *)
  Alcotest.(check (option int)) "hit a" (Some 1) (Cache.find c "a");
  Cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Cache.find c "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Cache.find c "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Cache.find c "c");
  let s = Cache.stats c in
  Alcotest.(check int) "evictions" 1 s.Cache.evictions;
  Alcotest.(check int) "size" 2 s.Cache.size;
  (* overwrite does not evict *)
  Cache.add c "a" 10;
  Alcotest.(check (option int)) "overwrite" (Some 10) (Cache.find c "a");
  Alcotest.(check (option int)) "c still there" (Some 3) (Cache.find c "c");
  Cache.clear c;
  Alcotest.(check (option int)) "cleared" None (Cache.find c "a");
  let disabled = Cache.create ~shards:1 ~capacity:0 () in
  Cache.add disabled "k" 1;
  Alcotest.(check (option int)) "capacity 0 stores nothing" None
    (Cache.find disabled "k")

let test_cache_find_or_compute () =
  let c = Cache.create ~shards:1 ~capacity:8 () in
  let runs = ref 0 in
  let compute cacheable () =
    incr runs;
    (!runs, cacheable)
  in
  let v, o = Cache.find_or_compute c "k" ~compute:(compute true) in
  Alcotest.(check int) "computed value" 1 v;
  Alcotest.(check bool) "computed origin" true (o = Cache.Computed);
  let v, o = Cache.find_or_compute c "k" ~compute:(compute true) in
  Alcotest.(check int) "cached value" 1 v;
  Alcotest.(check bool) "hit origin" true (o = Cache.Hit);
  (* a computation that declines caching is re-run next time *)
  let v, _ = Cache.find_or_compute c "u" ~compute:(compute false) in
  Alcotest.(check int) "uncached first" 2 v;
  let v, o = Cache.find_or_compute c "u" ~compute:(compute false) in
  Alcotest.(check int) "uncached recomputed" 3 v;
  Alcotest.(check bool) "recomputed origin" true (o = Cache.Computed);
  (* an exception clears the in-flight entry so later calls retry *)
  (match Cache.find_or_compute c "boom" ~compute:(fun () -> failwith "x") with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the computation's exception");
  let v, _ = Cache.find_or_compute c "boom" ~compute:(compute true) in
  Alcotest.(check int) "retried after failure" 4 v

let test_cache_single_flight () =
  let c = Cache.create ~shards:1 ~capacity:8 () in
  let computes = Atomic.make 0 in
  let gate = Atomic.make false in
  let worker () =
    Cache.find_or_compute c "shared" ~compute:(fun () ->
        Atomic.incr computes;
        while not (Atomic.get gate) do
          Domain.cpu_relax ()
        done;
        ("value", true))
  in
  let domains = List.init 4 (fun _ -> Domain.spawn worker) in
  (* let everyone pile onto the in-flight entry, then open the gate *)
  while Atomic.get computes = 0 do
    Domain.cpu_relax ()
  done;
  Unix.sleepf 0.05;
  Atomic.set gate true;
  let results = List.map Domain.join domains in
  Alcotest.(check int) "computed exactly once" 1 (Atomic.get computes);
  List.iter
    (fun (v, _) -> Alcotest.(check string) "same value" "value" v)
    results;
  let computed =
    List.length (List.filter (fun (_, o) -> o = Cache.Computed) results)
  in
  let joined =
    List.length (List.filter (fun (_, o) -> o = Cache.Joined) results)
  in
  Alcotest.(check int) "one computer" 1 computed;
  Alcotest.(check int) "three joiners" 3 joined;
  Alcotest.(check int) "stats joins" 3 (Cache.stats c).Cache.joins

(* ------------------------------------------------------------------ *)
(* Engine                                                              *)

let verdict_string (r : Engine.reply) =
  match r with
  | Ok o -> Protocol.verdict_to_string o.Engine.o_verdict
  | Error e -> "error:" ^ e

(* The satellite property: for random formulas, the served answer — cold,
   then from the cache — always equals a fresh [Decide.decide] verdict. *)
let prop_cache_matches_decide =
  QCheck2.Test.make ~name:"served verdict = fresh Decide.decide" ~count:15
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
      let ctx = Ast.create_ctx () in
      let f = Random_formula.generate Random_formula.small ctx ~seed in
      let text = Ast.to_string f in
      let expected =
        (Decide.decide ~deadline:(Deadline.after_wall 20.) ctx f)
          .Decide.verdict
      in
      let expected = Protocol.verdict_to_string (Protocol.verdict_of_sep expected) in
      let engine = Engine.create ~workers:1 ~cache_capacity:64 () in
      Fun.protect
        ~finally:(fun () -> Engine.shutdown engine)
        (fun () ->
          let job = Engine.job ~timeout_s:20. text in
          let first = Option.get (Engine.solve ~block:true engine job) in
          let second = Option.get (Engine.solve ~block:true engine job) in
          let hit_ok =
            match (first, second) with
            | Ok a, Ok b -> (
              match a.Engine.o_verdict with
              | Protocol.Unknown _ -> true (* unknowns are never cached *)
              | _ ->
                b.Engine.o_origin = Protocol.Cache_hit
                && a.Engine.o_digest = b.Engine.o_digest)
            | _ -> false
          in
          verdict_string first = expected
          && verdict_string second = expected
          && hit_ok))

let test_engine_shedding () =
  let started = Atomic.make 0 in
  let gate = Atomic.make false in
  let backend ~method_:_ ~deadline:_ ctx _f =
    Atomic.incr started;
    while not (Atomic.get gate) do
      Domain.cpu_relax ()
    done;
    ignore ctx;
    Verdict.Valid
  in
  let engine =
    Engine.create ~workers:1 ~queue_capacity:1 ~cache_capacity:64 ~backend ()
  in
  let replies = Bqueue.create ~capacity:8 in
  let submit text =
    Engine.submit engine (Engine.job text) (fun r ->
        ignore (Bqueue.try_push replies (text, r)))
  in
  Alcotest.(check bool) "first accepted" true (submit "(= a a)");
  (* wait until the worker owns it, so the queue is empty again *)
  while Atomic.get started = 0 do
    Domain.cpu_relax ()
  done;
  Alcotest.(check bool) "second queued" true (submit "(= b b)");
  Alcotest.(check bool) "third shed" false (submit "(= c c)");
  Alcotest.(check int) "shed counted" 1 (Engine.stats engine).Engine.st_shed;
  Atomic.set gate true;
  let r1 = Option.get (Bqueue.pop replies) in
  let r2 = Option.get (Bqueue.pop replies) in
  List.iter
    (fun (text, r) ->
      Alcotest.(check string) (text ^ " solved") "valid" (verdict_string r))
    [ r1; r2 ];
  Engine.shutdown engine;
  let s = Engine.stats engine in
  Alcotest.(check int) "completed" 2 s.Engine.st_completed;
  Alcotest.(check int) "submitted" 2 s.Engine.st_submitted

let test_engine_deadline_unknown () =
  (* a backend that honors its deadline: spins until the budget fires; the
     engine must answer unknown and must not cache it *)
  let backend ~method_:_ ~deadline ctx _f =
    ignore ctx;
    match Deadline.remaining deadline with
    | Some s when s > 1. -> Verdict.Valid
    | _ ->
      let rec spin () =
        Deadline.check deadline;
        Unix.sleepf 0.002;
        spin ()
      in
      spin ()
  in
  let engine = Engine.create ~workers:1 ~cache_capacity:64 ~backend () in
  let r1 =
    Option.get
      (Engine.solve ~block:true engine (Engine.job ~timeout_s:0.05 "(= x y)"))
  in
  (match r1 with
  | Ok o -> (
    match o.Engine.o_verdict with
    | Protocol.Unknown _ -> ()
    | v ->
      Alcotest.failf "expected unknown, got %s"
        (Protocol.verdict_to_string v))
  | Error e -> Alcotest.failf "expected unknown, got error %s" e);
  (* same formula under a generous budget: the unknown was not cached *)
  let r2 =
    Option.get
      (Engine.solve ~block:true engine (Engine.job ~timeout_s:30. "(= x y)"))
  in
  (match r2 with
  | Ok o ->
    Alcotest.(check string) "decisive under big budget" "valid"
      (Protocol.verdict_to_string o.Engine.o_verdict);
    Alcotest.(check bool) "not a cache hit" true
      (o.Engine.o_origin = Protocol.Solved)
  | Error e -> Alcotest.failf "unexpected error %s" e);
  Engine.shutdown engine

(* The trace-context handoff (the fleet's correctness property): a job
   built from a wire trace adopts the fleet rid and upstream hop path as
   the ambient context of everything recorded while serving it, and the
   next untraced job on the same worker gets a fresh server-minted rid —
   installing a whole context, not just a rid, is what prevents stale
   ambient state from leaking between requests that share a domain. *)
let test_engine_trace_adoption () =
  let seen = Bqueue.create ~capacity:8 in
  let backend ~method_:_ ~deadline:_ ctx _f =
    ignore ctx;
    ignore (Bqueue.try_push seen (Trace_ctx.rid (), Trace_ctx.path ()));
    Verdict.Valid
  in
  let engine = Engine.create ~workers:1 ~cache_capacity:64 ~backend () in
  let solve job = Option.get (Engine.solve ~block:true engine job) in
  let traced =
    solve (Engine.job ~rid:"fl-9-1" ~path:[ "router" ] "(= a a)")
  in
  (* Submitting from inside an ambient context must not leak it into the
     job: the job minted its own rid at creation. *)
  (* structurally distinct from the first formula — names wash out of
     the digest, so a mere rename would be answered from the cache and
     the backend (and this test's probe) would never run *)
  let untraced =
    Trace_ctx.with_rid "stale-ambient" (fun () ->
        solve (Engine.job "(= b (f b))"))
  in
  (match (traced, untraced) with
  | Ok a, Ok b ->
    Alcotest.(check bool) "queue time measured" true
      (a.Engine.o_queue_ms >= 0. && b.Engine.o_queue_ms >= 0.)
  | _ -> Alcotest.fail "expected two Ok outcomes");
  (match Bqueue.pop seen with
  | Some (rid, path) ->
    Alcotest.(check string) "wire rid adopted" "fl-9-1" rid;
    Alcotest.(check bool) "upstream hop is the path root" true
      (match path with "router" :: _ -> true | _ -> false)
  | None -> Alcotest.fail "backend never ran for the traced job");
  (match Bqueue.pop seen with
  | Some (rid, path) ->
    Alcotest.(check bool) "untraced job gets a minted rq- rid" true
      (String.length rid > 3 && String.sub rid 0 3 = "rq-");
    Alcotest.(check bool) "no stale upstream hops" true
      (not (List.mem "router" path) && rid <> "stale-ambient")
  | None -> Alcotest.fail "backend never ran for the untraced job");
  Engine.shutdown engine

(* Wire compatibility: a solve without a trace object and a reply without
   one parse to None — old clients and old servers interoperate with new
   ones; and the trace context round-trips exactly when present. *)
let test_protocol_trace_compat () =
  (match Protocol.request_of_line "{\"op\":\"solve\",\"formula\":\"(= x x)\"}" with
  | Ok (Protocol.Solve q) ->
    Alcotest.(check bool) "absent trace parses to None" true
      (q.Protocol.sq_trace = None)
  | _ -> Alcotest.fail "expected solve");
  (match
     Protocol.request_of_line
       "{\"op\":\"solve\",\"formula\":\"(= x x)\",\"trace\":{\"rid\":\"fl-1-2\",\"path\":[\"router\",\"edge\"]}}"
   with
  | Ok (Protocol.Solve q) -> (
    match q.Protocol.sq_trace with
    | Some tc ->
      Alcotest.(check string) "rid" "fl-1-2" tc.Protocol.tc_rid;
      Alcotest.(check (list string)) "path" [ "router"; "edge" ]
        tc.Protocol.tc_path
    | None -> Alcotest.fail "trace dropped")
  | _ -> Alcotest.fail "expected solve");
  (* a reply trace survives print -> parse with its hop list ordered *)
  let reply =
    Protocol.Ok_solve
      {
        Protocol.sv_id = "t";
        sv_verdict = Protocol.Valid;
        sv_origin = Protocol.Solved;
        sv_digest = String.make 32 'e';
        sv_witness = None;
        sv_solve_ms = 2.;
        sv_time_ms = 3.;
        sv_trace =
          Some
            {
              Protocol.rt_rid = "fl-1-3";
              rt_served_by = "1";
              rt_hops =
                [
                  ("router.parse", 0.1); ("router.queue", 0.2);
                  ("wire", 0.3); ("shard.queue", 0.4);
                  ("shard.solve", 1.9); ("reply", 0.1);
                ];
              (* realistic epoch-seconds anchors: the parse must preserve
                 them to sub-microsecond, or hop arithmetic downstream
                 turns to noise *)
              rt_recv_wall = 1786307311.712345;
              rt_recv_mono = 1786307311.712345;
              rt_send_wall = 1786307311.7159;
              rt_send_mono = 1786307311.7159;
            };
      }
  in
  match Protocol.reply_of_line (Protocol.reply_to_line reply) with
  | Ok (Protocol.Ok_solve s) -> (
    match s.Protocol.sv_trace with
    | Some tr ->
      Alcotest.(check string) "rid" "fl-1-3" tr.Protocol.rt_rid;
      Alcotest.(check string) "served_by" "1" tr.Protocol.rt_served_by;
      Alcotest.(check (list (pair string (float 1e-9)))) "hops in order"
        [
          ("router.parse", 0.1); ("router.queue", 0.2); ("wire", 0.3);
          ("shard.queue", 0.4); ("shard.solve", 1.9); ("reply", 0.1);
        ]
        tr.Protocol.rt_hops;
      Alcotest.(check (float 1e-7)) "recv anchor exact" 1786307311.712345
        tr.Protocol.rt_recv_mono;
      Alcotest.(check (float 1e-7)) "send anchor exact" 1786307311.7159
        tr.Protocol.rt_send_mono
    | None -> Alcotest.fail "reply trace dropped")
  | _ -> Alcotest.fail "reply did not round-trip"

let test_engine_parse_error () =
  let engine = Engine.create ~workers:1 () in
  let r =
    Option.get (Engine.solve ~block:true engine (Engine.job "(= x"))
  in
  Alcotest.(check bool) "parse error surfaces" true (Result.is_error r);
  Alcotest.(check int) "error counted" 1 (Engine.stats engine).Engine.st_errors;
  Engine.shutdown engine

(* ------------------------------------------------------------------ *)
(* Protocol front ends                                                 *)

let test_serve_channels () =
  let requests =
    String.concat "\n"
      [
        Protocol.request_to_line (Protocol.Ping "p");
        Protocol.request_to_line
          (Protocol.Solve
             {
               Protocol.sq_id = "good";
               sq_lang = Protocol.Suf;
               sq_text = "(= x x)";
               sq_method = Decide.Hybrid_default;
               sq_timeout_s = Some 10.;
               sq_trace = None;
             });
        "this is not json";
        "";
        deep_array 10_000;
        Protocol.request_to_line (Protocol.Stats_req "st");
        Protocol.request_to_line (Protocol.Shutdown "q");
      ]
    ^ "\n"
  in
  let in_path = Filename.temp_file "sufserve" ".in" in
  let out_path = Filename.temp_file "sufserve" ".out" in
  let oc = open_out in_path in
  output_string oc requests;
  close_out oc;
  let engine = Engine.create ~workers:1 () in
  let ic = open_in in_path in
  let oc = open_out out_path in
  let outcome = Server.serve_channels engine ic oc in
  close_in ic;
  close_out oc;
  Engine.shutdown engine;
  Alcotest.(check bool) "shutdown request ends the loop" true
    (outcome = `Shutdown);
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  let replies =
    List.rev_map
      (fun l ->
        match Protocol.reply_of_line l with
        | Ok r -> r
        | Error e -> Alcotest.failf "bad reply line %s: %s" l e)
      !lines
  in
  let find id =
    List.find_opt (fun r -> Protocol.reply_id r = id) replies
  in
  (match find "p" with
  | Some (Protocol.Pong _) -> ()
  | _ -> Alcotest.fail "no pong");
  (match find "good" with
  | Some (Protocol.Ok_solve s) ->
    Alcotest.(check string) "solve verdict" "valid"
      (Protocol.verdict_to_string s.Protocol.sv_verdict)
  | _ -> Alcotest.fail "no solve reply");
  (match find "st" with
  | Some (Protocol.Stats _) -> ()
  | _ -> Alcotest.fail "no stats reply");
  (match find "q" with
  | Some (Protocol.Bye _) -> ()
  | _ -> Alcotest.fail "no bye");
  Alcotest.(check bool) "malformed line got an error reply" true
    (List.exists (function Protocol.Error _ -> true | _ -> false) replies);
  (* the deep line is answered with its own error, and "st" and "q" after
     it were answered above *)
  Alcotest.(check bool) "deep line got a depth error reply" true
    (List.exists
       (function Protocol.Error (_, e) -> contains e too_deep | _ -> false)
       replies);
  Sys.remove in_path;
  Sys.remove out_path

let test_serve_unix_end_to_end () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sufserve-%d.sock" (Unix.getpid ()))
  in
  let engine = Engine.create ~workers:2 () in
  let server = Domain.spawn (fun () -> Server.serve_unix engine ~path) in
  let client k =
    Domain.spawn (fun () ->
        let s = Session.connect ~retries:100 path in
        let r1 = Session.solve s ~id:"a" "(= x x)" in
        let r2 = Session.solve s ~id:"b" "(= x x)" in
        let r3 = Session.solve s ~id:"c" (Printf.sprintf "(= c%d d)" k) in
        Session.close s;
        (r1, r2, r3))
  in
  let clients = List.init 3 client in
  let results = List.map Domain.join clients in
  List.iter
    (fun (r1, r2, r3) ->
      (match r1 with
      | Protocol.Ok_solve s ->
        Alcotest.(check string) "valid over the wire" "valid"
          (Protocol.verdict_to_string s.Protocol.sv_verdict)
      | _ -> Alcotest.fail "expected ok for r1");
      (match r2 with
      | Protocol.Ok_solve s ->
        (* the session is serial: by the time r2 is sent, this client's own
           r1 answer is cached *)
        Alcotest.(check bool) "repeat answered from the cache" true
          (s.Protocol.sv_origin = Protocol.Cache_hit);
        Alcotest.(check string) "cached verdict" "valid"
          (Protocol.verdict_to_string s.Protocol.sv_verdict)
      | _ -> Alcotest.fail "expected ok for r2");
      match r3 with
      | Protocol.Ok_solve s ->
        Alcotest.(check string) "invalid over the wire" "invalid"
          (Protocol.verdict_to_string s.Protocol.sv_verdict);
        Alcotest.(check bool) "witness digest present" true
          (s.Protocol.sv_witness <> None)
      | _ -> Alcotest.fail "expected ok for r3")
    results;
  (* stats and shutdown *)
  let s = Session.connect ~retries:10 path in
  Alcotest.(check bool) "ping" true (Session.ping s);
  (match Session.stats s with
  | Some j ->
    Alcotest.(check bool) "stats counts the requests" true
      (match Json.member "submitted" j with
      | Some (Json.Num n) -> n >= 9.
      | _ -> false)
  | None -> Alcotest.fail "no stats");
  Session.shutdown s;
  Session.close s;
  Domain.join server;
  Engine.shutdown engine;
  Alcotest.(check bool) "socket file removed" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Telemetry: metrics op, HTTP scrape, stats quantiles, correlation    *)

module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Log = Sepsat_obs.Log

let test_protocol_metrics_roundtrip () =
  (* request *)
  let line = Protocol.request_to_line (Protocol.Metrics_req "m1") in
  (match Protocol.request_of_line line with
  | Ok (Protocol.Metrics_req id) -> Alcotest.(check string) "req id" "m1" id
  | Ok _ -> Alcotest.fail "wrong request"
  | Error e -> Alcotest.failf "parse: %s" e);
  (* reply carries the exposition body and its content type *)
  let body = "# TYPE serve_requests counter\nserve_requests 3\n" in
  let rline = Protocol.reply_to_line (Protocol.Metrics ("m1", body)) in
  (match Protocol.reply_of_line rline with
  | Ok (Protocol.Metrics (id, b)) ->
    Alcotest.(check string) "reply id" "m1" id;
    Alcotest.(check string) "body survives the wire" body b
  | Ok _ -> Alcotest.fail "wrong reply"
  | Error e -> Alcotest.failf "parse: %s" e);
  Alcotest.(check string) "reply_id" "m1"
    (Protocol.reply_id (Protocol.Metrics ("m1", body)));
  (* the wire object advertises the scrape content type *)
  match Json.parse rline with
  | Ok j ->
    Alcotest.(check bool) "content_type on the wire" true
      (match Json.member "content_type" j with
      | Some (Json.Str s) -> s = Sepsat_obs.Prom.content_type
      | _ -> false)
  | Error e -> Alcotest.failf "reply not json: %s" e

let test_engine_metrics_always_on () =
  (* Operational counters move even with the observability layer off —
     [Engine.create] arms [Metrics.set_always_on]. *)
  Obs.disable ();
  Metrics.reset ();
  let engine = Engine.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown engine;
      Metrics.set_always_on false)
    (fun () ->
      Alcotest.(check bool) "create armed always-on" true
        (Metrics.always_on ());
      ignore (Engine.solve ~block:true engine (Engine.job "(= x x)"));
      ignore (Engine.solve ~block:true engine (Engine.job "(= x x)"));
      Alcotest.(check int) "requests counted with obs off" 2
        (Metrics.get (Metrics.counter "serve.requests"));
      Alcotest.(check int) "cache hit counted" 1
        (Metrics.get (Metrics.counter "serve.cache.hits"));
      (* ...and the scrape body reflects them *)
      let body = Sepsat_obs.Prom.current () in
      let has_line l = List.mem l (String.split_on_char '\n' body) in
      Alcotest.(check bool) "scrape sees the counter" true
        (has_line "serve_requests 2"))

let test_engine_stats_quantiles () =
  Obs.disable ();
  let engine = Engine.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      for i = 1 to 5 do
        ignore
          (Engine.solve ~block:true engine
             (Engine.job (Printf.sprintf "(= x%d x%d)" i i)))
      done;
      let s = Engine.stats engine in
      Alcotest.(check int) "window saw every request" 5 s.Engine.st_lat_count;
      Alcotest.(check bool) "p50 positive" true (s.Engine.st_p50_ms > 0.);
      Alcotest.(check bool) "quantiles ordered" true
        (s.Engine.st_p50_ms <= s.Engine.st_p90_ms
        && s.Engine.st_p90_ms <= s.Engine.st_p99_ms);
      (* stats_json exports them *)
      let j = Engine.stats_json engine in
      Alcotest.(check bool) "latency_ms object" true
        (match Json.member "latency_ms" j with
        | Some (Json.Obj kvs) ->
          List.mem_assoc "p50" kvs && List.mem_assoc "p90" kvs
          && List.mem_assoc "p99" kvs && List.mem_assoc "count" kvs
        | _ -> false))

(* Every span of a request — the request root and its descendants on the
   worker domain — carries the server-minted rid, so one rid filters the
   whole request out of a Chrome trace. *)
let test_engine_rid_tagged_spans () =
  Obs.disable ();
  Obs.reset ();
  Obs.enable ();
  let engine = Engine.create ~workers:1 () in
  let job = Engine.job ~id:"ridspan" "(= rs rs)" in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown engine;
      Obs.disable ())
    (fun () ->
      (match Engine.solve ~block:true engine job with
      | Some (Ok _) -> ()
      | _ -> Alcotest.fail "solve failed");
      let rids_of name =
        List.filter_map
          (function
            | Sepsat_obs.Obs.Span { name = n; rid; _ } when n = name ->
              Some rid
            | _ -> None)
          (Sepsat_obs.Obs.events ())
      in
      (match rids_of "serve.request" with
      | rid :: _ ->
        Alcotest.(check string) "request root carries the job rid"
          job.Engine.jb_rid rid
      | [] -> Alcotest.fail "no serve.request span");
      match rids_of "serve.solve" with
      | rid :: _ ->
        Alcotest.(check string) "descendant span inherits the rid"
          job.Engine.jb_rid rid
      | [] -> Alcotest.fail "no serve.solve span")

(* stats carries the p99 exemplar rid, and stats_json exposes the
   histogram exemplars and live-lane table. *)
let test_engine_stats_exemplars () =
  Obs.disable ();
  let engine = Engine.create ~workers:1 () in
  Fun.protect
    ~finally:(fun () -> Engine.shutdown engine)
    (fun () ->
      (* Formulas whose negation needs real CDCL search, so the solver's
         solve-start progress tick fires (a trivially-false instance is
         answered before search begins and feeds no lane). *)
      for i = 1 to 4 do
        ignore
          (Engine.solve ~block:true engine
             (Engine.job (Printf.sprintf "(= (f ex%d) (f ey%d))" i i)))
      done;
      let s = Engine.stats engine in
      Alcotest.(check bool) "p99 exemplar rid minted by the server" true
        (String.length s.Engine.st_p99_rid > 3
        && String.sub s.Engine.st_p99_rid 0 3 = "rq-");
      Alcotest.(check bool) "lanes table populated by progress ticks" true
        (s.Engine.st_lanes <> []);
      let j = Engine.stats_json engine in
      (match Json.member "latency_ms" j with
      | Some lat ->
        Alcotest.(check (option string)) "p99_rid exported"
          (Some s.Engine.st_p99_rid)
          (Json.mem_str "p99_rid" lat)
      | None -> Alcotest.fail "no latency_ms object");
      (match Json.member "exemplars" j with
      | Some (Json.Arr (_ :: _ as exes)) ->
        List.iter
          (fun e ->
            (match Json.mem_str "rid" e with
            | Some rid ->
              Alcotest.(check bool) "exemplar rid minted" true
                (String.length rid > 3 && String.sub rid 0 3 = "rq-")
            | None -> Alcotest.fail "exemplar without rid");
            Alcotest.(check bool) "exemplar value positive" true
              (match Json.mem_num "value_s" e with
              | Some v -> v > 0.
              | None -> false))
          exes
      | _ -> Alcotest.fail "no exemplars array");
      match Json.member "lanes" j with
      | Some (Json.Arr lanes) ->
        Alcotest.(check bool) "lanes exported" true (lanes <> []);
        List.iter
          (fun ln ->
            Alcotest.(check bool) "lane has tid and name" true
              (Json.mem_int "tid" ln <> None && Json.mem_str "name" ln <> None))
          lanes
      | _ -> Alcotest.fail "no lanes array")

(* The acceptance property: every served request is reconstructible from
   the JSON log stream by correlation id. *)
let test_engine_log_correlation () =
  let lines = ref [] in
  let mu = Mutex.create () in
  Log.enable ~sink:(fun l -> Mutex.protect mu (fun () -> lines := l :: !lines)) ();
  let engine = Engine.create ~workers:2 () in
  let ids = List.init 4 (fun i -> Printf.sprintf "rq-corr-%d" i) in
  Fun.protect
    ~finally:(fun () ->
      Engine.shutdown engine;
      Log.disable ())
    (fun () ->
      List.iteri
        (fun i id ->
          let text =
            if i = 3 then "(= broken" (* errors must correlate too *)
            else Printf.sprintf "(= c%d c%d)" i i
          in
          ignore (Engine.solve ~block:true engine (Engine.job ~id text)))
        ids);
  let parsed =
    List.map
      (fun l ->
        match Json.parse l with
        | Ok (Json.Obj kvs) -> kvs
        | _ -> Alcotest.failf "log line is not a json object: %s" l)
      !lines
  in
  let str k kvs =
    match List.assoc_opt k kvs with Some (Json.Str s) -> Some s | _ -> None
  in
  List.iter
    (fun id ->
      let mine = List.filter (fun kvs -> str "id" kvs = Some id) parsed in
      Alcotest.(check bool) (id ^ " has log lines") true (mine <> []);
      let events = List.filter_map (str "event") mine in
      Alcotest.(check bool) (id ^ " has serve.request") true
        (List.mem "serve.request" events);
      Alcotest.(check bool) (id ^ " has a terminal event") true
        (List.mem "serve.reply" events || List.mem "serve.error" events);
      (* one rid per request, present on every line of that request *)
      match List.filter_map (str "rid") mine with
      | [] -> Alcotest.fail (id ^ " lines carry no rid")
      | rid :: rest as rids ->
        Alcotest.(check int) (id ^ " rid on every line") (List.length mine)
          (List.length rids);
        List.iter (Alcotest.(check string) (id ^ " single rid") rid) rest)
    ids

(* A rid adopted from a client's wire trace context may hold any bytes.
   Every JSON writer it reaches must escape it so that a strict parser
   gives it back byte for byte: a quote, a control byte and UTF-8. *)
let test_hostile_rid_every_writer () =
  let module Flight = Sepsat_obs.Flight in
  let hostile = "a\"b\001\xc3\xa9" and text = "(= (g hz) (g hz))" in
  let lines = ref [] in
  let mu = Mutex.create () in
  Obs.disable ();
  Metrics.reset ();
  Flight.reset ();
  Log.enable
    ~sink:(fun l -> Mutex.protect mu (fun () -> lines := l :: !lines))
    ();
  let engine = Engine.create ~workers:1 () in
  (* The exemplar would otherwise outlive this test: exemplars keep the
     slowest observation per bucket until a reset. *)
  let outcome, stats, metrics =
    Fun.protect
      ~finally:(fun () ->
        Engine.shutdown engine;
        Log.disable ();
        Metrics.reset ())
      (fun () ->
        let line =
          Protocol.request_to_line
            (Protocol.Solve
               {
                 Protocol.sq_id = "hostile";
                 sq_lang = Protocol.Suf;
                 sq_text = text;
                 sq_method = Decide.Hybrid_default;
                 sq_timeout_s = None;
                 sq_trace = Some { Protocol.tc_rid = hostile; tc_path = [] };
               })
        in
        let rid =
          match Protocol.request_of_line line with
          | Ok (Protocol.Solve { Protocol.sq_trace = Some tc; _ }) ->
            tc.Protocol.tc_rid
          | _ -> Alcotest.fail "traced solve did not round-trip"
        in
        let o = Engine.solve ~block:true engine (Engine.job ~rid text) in
        (o, Engine.stats_json engine, Metrics.to_json ()))
  in
  let strict what text =
    match Json.parse text with
    | Ok j -> j
    | Error e -> Alcotest.failf "%s is not strict JSON: %s" what e
  in
  let rid_found what docs =
    Alcotest.(check bool) (what ^ " gives the rid back") true
      (List.exists (fun j -> Json.mem_str "rid" j = Some hostile) docs)
  in
  let arr = function Some (Json.Arr l) -> l | _ -> [] in
  (match outcome with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "the hostile-rid job was not solved");
  rid_found "the log stream" (List.map (strict "a log line") !lines);
  let dump = strict "the flight dump" (Json.to_string (Flight.to_json ())) in
  rid_found "the flight dump" (arr (Json.member "records" dump));
  let trace =
    strict "the assembled trace"
      (Flight.assemble ~rid:hostile [ Flight.source_of_json ~label:"s" dump ])
  in
  rid_found "the assembled trace"
    (List.filter_map (Json.member "args")
       (arr (Json.member "traceEvents" trace)));
  let metrics = strict "the metrics snapshot" (Json.to_string metrics) in
  rid_found "the metrics exemplars"
    (arr
       (Option.bind (Json.member "serve.request_s" metrics)
          (Json.member "exemplars")));
  let stats = strict "the stats reply" (Json.to_string stats) in
  rid_found "the stats exemplars" (arr (Json.member "exemplars" stats));
  Alcotest.(check (option string)) "the stats p99 rid" (Some hostile)
    (Option.bind (Json.member "latency_ms" stats) (Json.mem_str "p99_rid"))

let test_serve_channels_metrics_op () =
  let requests =
    String.concat "\n"
      [
        Protocol.request_to_line (Protocol.Solve
          {
            Protocol.sq_id = "warm";
            sq_lang = Protocol.Suf;
            sq_text = "(= m m)";
            sq_method = Decide.Hybrid_default;
            sq_timeout_s = Some 10.;
            sq_trace = None;
          });
        Protocol.request_to_line (Protocol.Metrics_req "m");
        Protocol.request_to_line (Protocol.Shutdown "q");
      ]
    ^ "\n"
  in
  let in_path = Filename.temp_file "sufmetrics" ".in" in
  let out_path = Filename.temp_file "sufmetrics" ".out" in
  let oc = open_out in_path in
  output_string oc requests;
  close_out oc;
  let engine = Engine.create ~workers:1 () in
  (* the registry is process-global: zero it so the scrape value below is
     this test's traffic alone *)
  Metrics.reset ();
  let ic = open_in in_path in
  let oc = open_out out_path in
  ignore (Server.serve_channels engine ic oc);
  close_in ic;
  close_out oc;
  Engine.shutdown engine;
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  let metrics_reply =
    List.find_map
      (fun l ->
        match Protocol.reply_of_line l with
        | Ok (Protocol.Metrics (id, body)) -> Some (id, body)
        | _ -> None)
      !lines
  in
  match metrics_reply with
  | None -> Alcotest.fail "no metrics reply"
  | Some (id, body) ->
    Alcotest.(check string) "id echoed" "m" id;
    let lines = String.split_on_char '\n' body in
    Alcotest.(check bool) "typed exposition" true
      (List.mem "# TYPE serve_requests counter" lines);
    (* solves are answered asynchronously, so no exact value here — just a
       well-formed sample (the deterministic value check is the always-on
       test above) *)
    let sample =
      List.find_opt
        (fun l ->
          String.length l > 15 && String.sub l 0 15 = "serve_requests ")
        lines
    in
    match sample with
    | None -> Alcotest.fail "no serve_requests sample"
    | Some l ->
      let v = String.sub l 15 (String.length l - 15) in
      Alcotest.(check bool) "sample value parses" true
        (Float.is_finite (float_of_string v))

(* The dump op returns the flight recorder as one JSON body; after a
   served request, the dump holds that request's records. *)
let test_serve_channels_dump_op () =
  let requests =
    String.concat "\n"
      [
        Protocol.request_to_line (Protocol.Dump_req "d");
        Protocol.request_to_line (Protocol.Shutdown "q");
      ]
    ^ "\n"
  in
  let in_path = Filename.temp_file "sufdump" ".in" in
  let out_path = Filename.temp_file "sufdump" ".out" in
  let oc = open_out in_path in
  output_string oc requests;
  close_out oc;
  Sepsat_obs.Flight.reset ();
  let engine = Engine.create ~workers:1 () in
  (* Serve one request to completion first (the protocol answers solves
     asynchronously, so an in-band solve could land after the dump). *)
  (match Engine.solve ~block:true engine (Engine.job "(= fd fd)") with
  | Some (Ok _) -> ()
  | _ -> Alcotest.fail "warmup solve failed");
  let ic = open_in in_path in
  let oc = open_out out_path in
  ignore (Server.serve_channels engine ic oc);
  close_in ic;
  close_out oc;
  Engine.shutdown engine;
  let ic = open_in out_path in
  let lines = ref [] in
  (try
     while true do
       lines := input_line ic :: !lines
     done
   with End_of_file -> ());
  close_in ic;
  Sys.remove in_path;
  Sys.remove out_path;
  let dump_reply =
    List.find_map
      (fun l ->
        match Protocol.reply_of_line l with
        | Ok (Protocol.Dump (id, body)) -> Some (id, body)
        | _ -> None)
      !lines
  in
  match dump_reply with
  | None -> Alcotest.fail "no dump reply"
  | Some (id, body) ->
    Alcotest.(check string) "id echoed" "d" id;
    (match Json.parse body with
    | Error e -> Alcotest.fail ("dump body does not parse: " ^ e)
    | Ok j ->
      Alcotest.(check (option string)) "schema" (Some "sepsat-flight-1")
        (Json.mem_str "schema" j);
      match Json.member "records" j with
      | Some (Json.Arr (_ :: _ as rs)) ->
        (* The served request left rid-tagged records behind. *)
        Alcotest.(check bool) "a request record is present" true
          (List.exists
             (fun r ->
               match Json.mem_str "rid" r with
               | Some rid ->
                 String.length rid > 3 && String.sub rid 0 3 = "rq-"
               | None -> false)
             rs)
      | _ -> Alcotest.fail "dump has no records")

let test_serve_metrics_http () =
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "sufmetrics-%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  Metrics.set_always_on true;
  Metrics.incr (Metrics.counter "serve.requests");
  Metrics.set_always_on false;
  let stop = Atomic.make false in
  let th = Server.serve_metrics ~path ~stop in
  let scrape target =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX path);
    let req = Printf.sprintf "GET %s HTTP/1.0\r\nHost: x\r\n\r\n" target in
    ignore (Unix.write_substring fd req 0 (String.length req));
    let buf = Buffer.create 1024 in
    let chunk = Bytes.create 1024 in
    let rec drain () =
      match Unix.read fd chunk 0 1024 with
      | 0 -> ()
      | n ->
        Buffer.add_subbytes buf chunk 0 n;
        drain ()
    in
    drain ();
    Unix.close fd;
    Buffer.contents buf
  in
  Fun.protect
    ~finally:(fun () ->
      Atomic.set stop true;
      Thread.join th)
    (fun () ->
      let resp = scrape "/metrics" in
      Alcotest.(check bool) "200" true (contains resp "HTTP/1.0 200 OK");
      Alcotest.(check bool) "prometheus content type" true
        (contains resp "Content-Type: text/plain; version=0.0.4");
      Alcotest.(check bool) "content length framed" true
        (contains resp "Content-Length: ");
      Alcotest.(check bool) "typed body" true
        (contains resp "# TYPE serve_requests counter");
      let missing = scrape "/nope" in
      Alcotest.(check bool) "404 elsewhere" true
        (contains missing "HTTP/1.0 404 Not Found"));
  Alcotest.(check bool) "socket removed on stop" false (Sys.file_exists path)

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)

let test_loadgen_smoke () =
  let config =
    {
      Loadgen.default with
      Loadgen.clients = 2;
      repeats = 2;
      bench_names = [ "cache.5"; "tv.1" ];
      workers = 2;
    }
  in
  let r = Loadgen.run config in
  Alcotest.(check int) "requests" 8 r.Loadgen.r_requests;
  Alcotest.(check int) "all ok" 8 r.Loadgen.r_ok;
  Alcotest.(check int) "no errors" 0 r.Loadgen.r_errors;
  Alcotest.(check (list (triple string string string))) "no mismatches" []
    r.Loadgen.r_mismatches;
  Alcotest.(check bool) "cache was exercised" true
    (r.Loadgen.r_hit.Loadgen.l_count + r.Loadgen.r_joined.Loadgen.l_count > 0);
  (* the JSON report parses back *)
  let path = Filename.temp_file "loadgen" ".json" in
  Loadgen.write_json path r;
  let ic = open_in path in
  let line = input_line ic in
  close_in ic;
  Sys.remove path;
  Alcotest.(check bool) "report is valid json" true
    (Result.is_ok (Json.parse line))

let () =
  Alcotest.run "serve"
    [
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "parse" `Quick test_json_parse;
          Alcotest.test_case "nesting depth bound" `Quick
            test_json_depth_bound;
        ] );
      ( "protocol",
        [
          Alcotest.test_case "requests" `Quick test_protocol_requests;
          Alcotest.test_case "replies" `Quick test_protocol_replies;
          Alcotest.test_case "trace context compat and roundtrip" `Quick
            test_protocol_trace_compat;
        ] );
      ( "bqueue",
        [
          Alcotest.test_case "bounds and close" `Quick test_bqueue_bounds;
          Alcotest.test_case "concurrent" `Quick test_bqueue_concurrent;
        ] );
      ( "cache",
        [
          Alcotest.test_case "lru eviction" `Quick test_cache_lru;
          Alcotest.test_case "find_or_compute" `Quick
            test_cache_find_or_compute;
          Alcotest.test_case "single flight" `Quick test_cache_single_flight;
        ] );
      ( "engine",
        [
          QCheck_alcotest.to_alcotest prop_cache_matches_decide;
          Alcotest.test_case "shedding" `Quick test_engine_shedding;
          Alcotest.test_case "deadline yields unknown" `Quick
            test_engine_deadline_unknown;
          Alcotest.test_case "parse error" `Quick test_engine_parse_error;
          Alcotest.test_case "wire trace adoption, no stale context" `Quick
            test_engine_trace_adoption;
        ] );
      ( "server",
        [
          Alcotest.test_case "channels" `Quick test_serve_channels;
          Alcotest.test_case "unix socket" `Quick test_serve_unix_end_to_end;
        ] );
      ( "telemetry",
        [
          Alcotest.test_case "metrics op roundtrip" `Quick
            test_protocol_metrics_roundtrip;
          Alcotest.test_case "always-on serve metrics" `Quick
            test_engine_metrics_always_on;
          Alcotest.test_case "stats rolling quantiles" `Quick
            test_engine_stats_quantiles;
          Alcotest.test_case "hostile rid survives every JSON writer" `Quick
            test_hostile_rid_every_writer;
          Alcotest.test_case "logs correlate every request" `Quick
            test_engine_log_correlation;
          Alcotest.test_case "spans carry the request rid" `Quick
            test_engine_rid_tagged_spans;
          Alcotest.test_case "p99 exemplar rid, exemplars and lanes" `Quick
            test_engine_stats_exemplars;
          Alcotest.test_case "metrics over the protocol" `Quick
            test_serve_channels_metrics_op;
          Alcotest.test_case "flight dump over the protocol" `Quick
            test_serve_channels_dump_op;
          Alcotest.test_case "GET /metrics over http" `Quick
            test_serve_metrics_http;
        ] );
      ("loadgen", [ Alcotest.test_case "smoke" `Quick test_loadgen_smoke ]);
    ]
