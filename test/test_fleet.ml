(* Tests for the fleet subsystem: consistent-hash ring (distribution
   bounds, minimal remapping, affinity), poll wrapper, buffered line
   connections, the persistent disk cache (restart survival, torn-tail
   tolerance), the warm protocol op, client retry, and an end-to-end
   fleet — real router, real supervised backend processes — including a
   SIGKILL mid-load and a warm restart. *)

module Ring = Sepsat_fleet.Ring
module Poll = Sepsat_fleet.Poll
module Lineconn = Sepsat_fleet.Lineconn
module Disk_cache = Sepsat_fleet.Disk_cache
module Fleet = Sepsat_fleet.Fleet
module Json = Sepsat_util.Json
module Protocol = Sepsat_serve.Protocol
module Engine = Sepsat_serve.Engine
module Session = Sepsat_serve.Session
module Ast = Sepsat_suf.Ast
module Parse = Sepsat_suf.Parse
module Prom = Sepsat_obs.Prom
module Metrics = Sepsat_obs.Metrics

let tmpdir prefix =
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "%s-%d-%d" prefix (Unix.getpid ()) (Random.int 1000000))
  in
  Unix.mkdir d 0o755;
  d

(* ------------------------------------------------------------------ *)
(* Ring                                                                *)

let test_ring_basics () =
  let r = Ring.create [ 0; 1; 2 ] in
  Alcotest.(check (list int)) "members" [ 0; 1; 2 ] (Ring.members r);
  Alcotest.(check bool) "not empty" false (Ring.is_empty r);
  Alcotest.(check bool) "empty ring" true (Ring.is_empty (Ring.create []));
  Alcotest.(check (option int)) "empty lookup" None
    (Ring.lookup (Ring.create []) "k");
  (* lookup_order: head is the owner, and the whole order is a
     permutation of the members. *)
  let order = Ring.lookup_order r "some-key" in
  Alcotest.(check (option int)) "order head = lookup"
    (Ring.lookup r "some-key")
    (match order with [] -> None | b :: _ -> Some b);
  Alcotest.(check (list int)) "order is a permutation" [ 0; 1; 2 ]
    (List.sort compare order)

let test_ring_distribution () =
  let n = 5 in
  let keys = 20_000 in
  let r = Ring.create (List.init n Fun.id) in
  let counts = Array.make n 0 in
  for i = 0 to keys - 1 do
    match Ring.lookup r (Printf.sprintf "key-%d" i) with
    | Some b -> counts.(b) <- counts.(b) + 1
    | None -> Alcotest.fail "lookup on a populated ring"
  done;
  let fair = float_of_int keys /. float_of_int n in
  Array.iteri
    (fun b c ->
      let share = float_of_int c /. fair in
      if share < 0.5 || share > 1.8 then
        Alcotest.failf "backend %d owns %.0f%% of fair share" b
          (100. *. share))
    counts

let test_ring_remap_on_join () =
  let n = 4 in
  let keys = 10_000 in
  let before = Ring.create (List.init n Fun.id) in
  let after = Ring.add before n in
  let moved = ref 0 in
  for i = 0 to keys - 1 do
    let key = Printf.sprintf "remap-%d" i in
    let b = Ring.lookup before key and a = Ring.lookup after key in
    if b <> a then begin
      incr moved;
      (* Consistent hashing's defining property: a join only steals keys
         for the new member — nothing reshuffles between the old ones. *)
      Alcotest.(check (option int)) "moved keys go to the new member"
        (Some n) a
    end
  done;
  let fair = float_of_int keys /. float_of_int (n + 1) in
  if float_of_int !moved > 2.5 *. fair then
    Alcotest.failf "join remapped %d keys (fair share %.0f)" !moved fair

let test_ring_remap_on_leave () =
  let n = 5 in
  let keys = 10_000 in
  let before = Ring.create (List.init n Fun.id) in
  let after = Ring.remove before 2 in
  for i = 0 to keys - 1 do
    let key = Printf.sprintf "leave-%d" i in
    match Ring.lookup before key with
    | Some 2 -> ()  (* orphaned keys land wherever the arcs dictate *)
    | owner ->
      Alcotest.(check (option int)) "survivors keep their keys" owner
        (Ring.lookup after key)
  done

let prop_ring_affinity =
  QCheck2.Test.make ~name:"ring lookup is a pure function of membership"
    ~count:200
    QCheck2.Gen.(string_size ~gen:printable (int_range 0 64))
    (fun key ->
      let a = Ring.create [ 0; 1; 2; 3 ] in
      let b = Ring.create [ 3; 2; 1; 0 ] in
      (* Same members (any order, independently built) — same owner:
         the property that gives backend caches their affinity. *)
      Ring.lookup a key = Ring.lookup b key
      && List.sort compare (Ring.lookup_order a key) = [ 0; 1; 2; 3 ])

(* ------------------------------------------------------------------ *)
(* Poll                                                                *)

let test_poll_readiness () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let p = Poll.create () in
  Poll.set p a ~read:true ~write:false;
  Alcotest.(check int) "one registration" 1 (Poll.registered p);
  Alcotest.(check int) "quiet socket: timeout" 0
    (List.length (Poll.wait p ~timeout_s:0.05));
  ignore (Unix.write_substring b "x" 0 1);
  (match Poll.wait p ~timeout_s:1.0 with
  | [ r ] ->
    Alcotest.(check bool) "right fd" true (r.Poll.r_fd = a);
    Alcotest.(check bool) "readable" true r.Poll.r_readable
  | l -> Alcotest.failf "expected one ready fd, got %d" (List.length l));
  Poll.set p a ~read:false ~write:true;
  (match Poll.wait p ~timeout_s:1.0 with
  | [ r ] -> Alcotest.(check bool) "writable" true r.Poll.r_writable
  | l -> Alcotest.failf "expected one writable fd, got %d" (List.length l));
  Poll.remove p a;
  Alcotest.(check int) "deregistered" 0 (Poll.registered p);
  Unix.close a;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Lineconn                                                            *)

let wr fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let rd fd =
  let b = Bytes.create 4096 in
  match Unix.read fd b 0 4096 with
  | 0 -> ""
  | n -> Bytes.sub_string b 0 n

let test_lineconn_read_banking () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Lineconn.create a in
  wr b "hel";
  (match Lineconn.on_readable c with
  | `Nothing -> ()
  | _ -> Alcotest.fail "partial line must bank, not deliver");
  wr b "lo\nwo";
  (match Lineconn.on_readable c with
  | `Lines [ "hello" ] -> ()
  | _ -> Alcotest.fail "completed line delivered, tail banked");
  wr b "rld\n\ntail\n";
  (match Lineconn.on_readable c with
  | `Lines [ "world"; "tail" ] -> ()  (* blank line filtered *)
  | _ -> Alcotest.fail "two lines, blank filtered");
  Unix.close b;
  (match Lineconn.on_readable c with
  | `Closed -> ()
  | _ -> Alcotest.fail "EOF with nothing pending is Closed");
  Lineconn.close c

let test_lineconn_eof_with_pending () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Lineconn.create a in
  wr b "last\n";
  Unix.close b;
  (match Lineconn.on_readable c with
  | `Lines [ "last" ] -> ()
  | _ -> Alcotest.fail "final batch delivered before Closed");
  (match Lineconn.on_readable c with
  | `Closed -> ()
  | _ -> Alcotest.fail "Closed on the next call");
  Lineconn.close c

let test_lineconn_write_queue () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let c = Lineconn.create a in
  Alcotest.(check bool) "idle" false (Lineconn.wants_write c);
  Lineconn.enqueue c "ping";
  Lineconn.enqueue c "pong";
  Alcotest.(check bool) "queued" true (Lineconn.wants_write c);
  (match Lineconn.on_writable c with
  | `Ok -> ()
  | `Closed -> Alcotest.fail "healthy socket");
  Alcotest.(check bool) "drained" false (Lineconn.wants_write c);
  Alcotest.(check string) "newline-framed on the wire" "ping\npong\n" (rd b);
  Lineconn.close c;
  Unix.close b

(* ------------------------------------------------------------------ *)
(* Disk cache                                                          *)

let entry verdict ms =
  { Disk_cache.d_verdict = verdict; d_witness = None; d_solve_ms = ms }

let test_disk_cache_restart () =
  let dir = tmpdir "sepsat-disk" in
  let path = Filename.concat dir "verdicts.jsonl" in
  let c = Disk_cache.open_ ~path in
  Alcotest.(check int) "fresh cache empty" 0 (Disk_cache.size c);
  Disk_cache.put c "k1|hybrid" (entry Protocol.Valid 12.5);
  Disk_cache.put c "k2|hybrid"
    {
      Disk_cache.d_verdict = Protocol.Invalid;
      d_witness = Some "wdigest";
      d_solve_ms = 3.;
    };
  (* First write wins: a re-served verdict must not grow the log. *)
  Disk_cache.put c "k1|hybrid" (entry Protocol.Valid 99.);
  Alcotest.(check int) "two keys" 2 (Disk_cache.size c);
  Alcotest.(check int) "two appends" 2 (Disk_cache.stats c).Disk_cache.s_appended;
  Disk_cache.close c;
  let c2 = Disk_cache.open_ ~path in
  Alcotest.(check int) "reload finds both" 2 (Disk_cache.size c2);
  Alcotest.(check int) "loaded from disk" 2
    (Disk_cache.stats c2).Disk_cache.s_loaded;
  (match Disk_cache.find c2 "k1|hybrid" with
  | Some e ->
    Alcotest.(check bool) "verdict survives" true
      (e.Disk_cache.d_verdict = Protocol.Valid);
    Alcotest.(check (float 1e-9)) "first write won" 12.5 e.Disk_cache.d_solve_ms
  | None -> Alcotest.fail "k1 must survive the restart");
  (match Disk_cache.find c2 "k2|hybrid" with
  | Some e ->
    Alcotest.(check (option string)) "witness survives" (Some "wdigest")
      e.Disk_cache.d_witness
  | None -> Alcotest.fail "k2 must survive the restart");
  let st = Disk_cache.stats c2 in
  Alcotest.(check int) "hits counted" 2 st.Disk_cache.s_hits;
  Disk_cache.close c2;
  Sys.remove path;
  Unix.rmdir dir

let test_disk_cache_torn_tail () =
  let dir = tmpdir "sepsat-torn" in
  let path = Filename.concat dir "verdicts.jsonl" in
  let c = Disk_cache.open_ ~path in
  Disk_cache.put c "good|sd" (entry Protocol.Valid 1.);
  Disk_cache.put c "also|sd" (entry Protocol.Invalid 2.);
  Disk_cache.close c;
  (* Crash mid-append: the log ends in garbage and half a record. *)
  let oc = open_out_gen [ Open_append ] 0o644 path in
  output_string oc "not json at all\n";
  output_string oc "{\"key\":\"torn|sd\",\"verdi";
  close_out oc;
  let c2 = Disk_cache.open_ ~path in
  Alcotest.(check int) "torn tail skipped, rest recovered" 2
    (Disk_cache.size c2);
  (* The cache stays writable after recovery. *)
  Disk_cache.put c2 "after|sd" (entry Protocol.Valid 3.);
  Disk_cache.close c2;
  let c3 = Disk_cache.open_ ~path in
  Alcotest.(check int) "append after torn tail persists" 3
    (Disk_cache.size c3);
  Disk_cache.close c3;
  Sys.remove path;
  Unix.rmdir dir

(* ------------------------------------------------------------------ *)
(* Warm op: protocol and engine                                        *)

let test_protocol_warm_roundtrip () =
  let w =
    Protocol.Warm
      {
        Protocol.wr_id = "w1";
        wr_key = "abc|hybrid";
        wr_verdict = Protocol.Invalid;
        wr_witness = Some "wd";
        wr_solve_ms = 7.25;
      }
  in
  (match Protocol.request_of_line (Protocol.request_to_line w) with
  | Ok (Protocol.Warm w') ->
    Alcotest.(check string) "id" "w1" w'.Protocol.wr_id;
    Alcotest.(check string) "key" "abc|hybrid" w'.Protocol.wr_key;
    Alcotest.(check bool) "verdict" true
      (w'.Protocol.wr_verdict = Protocol.Invalid);
    Alcotest.(check (option string)) "witness" (Some "wd")
      w'.Protocol.wr_witness;
    Alcotest.(check (float 1e-9)) "solve_ms" 7.25 w'.Protocol.wr_solve_ms
  | _ -> Alcotest.fail "warm request must round-trip");
  (match
     Protocol.request_of_line
       "{\"op\":\"warm\",\"id\":\"x\",\"key\":\"k\",\"verdict\":\"unknown\"}"
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "indecisive warm must be rejected");
  match Protocol.reply_of_line (Protocol.reply_to_line (Protocol.Warmed "w1")) with
  | Ok (Protocol.Warmed "w1") -> ()
  | _ -> Alcotest.fail "warmed reply must round-trip"

let test_engine_warm () =
  let eng = Engine.create ~workers:1 () in
  let ctx = Ast.create_ctx () in
  let f = Parse.formula ctx "(= x x)" in
  let key = Ast.digest f ^ "|hybrid" in
  Alcotest.(check bool) "decisive warm accepted" true
    (Engine.warm eng ~key ~verdict:Protocol.Valid ~witness:None ~solve_ms:123.);
  Alcotest.(check bool) "unknown warm rejected" false
    (Engine.warm eng ~key:"other" ~verdict:(Protocol.Unknown "budget")
       ~witness:None ~solve_ms:0.);
  (match Engine.solve ~block:true eng (Engine.job "(= x x)") with
  | Some (Ok o) ->
    Alcotest.(check bool) "warmed formula answers from the cache" true
      (o.Engine.o_origin = Protocol.Cache_hit);
    Alcotest.(check (float 1e-9)) "cost reported from the warm entry" 123.
      o.Engine.o_solve_ms
  | _ -> Alcotest.fail "expected a served verdict");
  Engine.shutdown eng

(* ------------------------------------------------------------------ *)
(* Prom const labels                                                   *)

let contains hay needle =
  let n = String.length needle and m = String.length hay in
  let rec go i =
    if i + n > m then false
    else String.sub hay i n = needle || go (i + 1)
  in
  go 0

let test_prom_const_labels () =
  let snapshot = [ ("x.count", Metrics.Counter 3); ("g", Metrics.Gauge 1.5) ] in
  let plain = Prom.render snapshot in
  Alcotest.(check bool) "default output is unlabelled" true
    (String.length plain > 0 && not (contains plain "{"));
  Prom.set_const_labels [ ("backend", "7") ];
  let labelled = Prom.render snapshot in
  Prom.set_const_labels [];
  Alcotest.(check bool) "counter labelled" true
    (contains labelled "x_count{backend=\"7\"} 3");
  Alcotest.(check bool) "gauge labelled" true
    (contains labelled "g{backend=\"7\"} 1.5");
  (* Back to default: byte-identical to the historical format. *)
  Alcotest.(check string) "reset restores the unlabelled format" plain
    (Prom.render snapshot)

(* ------------------------------------------------------------------ *)
(* Session retry                                                       *)

let test_session_retry_busy_then_ok () =
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let seen = Atomic.make 0 in
  let server =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr c2s_r in
        let oc = Unix.out_channel_of_descr s2c_w in
        (* Shed twice, then answer: the client's retry loop must absorb
           exactly the two busy replies. *)
        (try
           for _ = 1 to 3 do
             let line = input_line ic in
             ignore line;
             let n = 1 + Atomic.fetch_and_add seen 1 in
             let reply =
               if n <= 2 then Protocol.Busy "p" else Protocol.Pong "p"
             in
             output_string oc (Protocol.reply_to_line reply);
             output_char oc '\n';
             flush oc
           done
         with End_of_file | Sys_error _ -> ()))
      ()
  in
  let session =
    Session.of_channels
      (Unix.in_channel_of_descr s2c_r)
      (Unix.out_channel_of_descr c2s_w)
  in
  let _, reply =
    Session.with_retry ~attempts:5 ~base_s:0.005 ~cap_s:0.02 ~path:"/nonexistent"
      session
      (fun s -> Session.rpc s (Protocol.Ping "p"))
  in
  (match reply with
  | Protocol.Pong _ -> ()
  | r ->
    Alcotest.failf "expected pong after retries, got %s"
      (Protocol.reply_to_line r));
  Alcotest.(check int) "two sheds absorbed" 3 (Atomic.get seen);
  Thread.join server;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ c2s_r; c2s_w; s2c_r; s2c_w ]

let test_session_retry_exhaustion () =
  let c2s_r, c2s_w = Unix.pipe () in
  let s2c_r, s2c_w = Unix.pipe () in
  let server =
    Thread.create
      (fun () ->
        let ic = Unix.in_channel_of_descr c2s_r in
        let oc = Unix.out_channel_of_descr s2c_w in
        (try
           for _ = 1 to 2 do
             ignore (input_line ic);
             output_string oc (Protocol.reply_to_line (Protocol.Busy "p"));
             output_char oc '\n';
             flush oc
           done
         with End_of_file | Sys_error _ -> ()))
      ()
  in
  let session =
    Session.of_channels
      (Unix.in_channel_of_descr s2c_r)
      (Unix.out_channel_of_descr c2s_w)
  in
  let _, reply =
    Session.with_retry ~attempts:2 ~base_s:0.005 ~cap_s:0.01 ~path:"/nonexistent"
      session
      (fun s -> Session.rpc s (Protocol.Ping "p"))
  in
  (match reply with
  | Protocol.Busy _ -> ()  (* the budget ran out: last transient surfaces *)
  | r ->
    Alcotest.failf "expected busy after exhaustion, got %s"
      (Protocol.reply_to_line r));
  Thread.join server;
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
    [ c2s_r; c2s_w; s2c_r; s2c_w ]

(* ------------------------------------------------------------------ *)
(* End-to-end fleet: real router, real backend processes               *)

(* cwd differs between [dune runtest] (_build/default/test) and
   [dune exec] (the project root); resolve the binary either way and hand
   the supervisor an absolute path. *)
let sufdec_exe =
  let candidates =
    [ "../bin/sufdec.exe"; "_build/default/bin/sufdec.exe"; "bin/sufdec.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p ->
    if Filename.is_relative p then Filename.concat (Sys.getcwd ()) p else p
  | None -> "../bin/sufdec.exe"

let rec wait_until ~tries ~sleep_s f =
  f ()
  || tries > 0
     && begin
          Unix.sleepf sleep_s;
          wait_until ~tries:(tries - 1) ~sleep_s f
        end

let fleet_stats session =
  match Session.stats session with
  | Some j -> j
  | None -> Alcotest.fail "fleet did not answer stats"

let backends_of j =
  match Json.member "backends" j with Some (Json.Arr l) -> l | _ -> []

let up_count j =
  List.length
    (List.filter
       (fun b -> Json.mem_bool "up" b = Some true)
       (backends_of j))

let solve_retrying ~path session text =
  let s, reply =
    Session.with_retry ~path !session (fun s -> Session.solve s text)
  in
  session := s;
  reply

let test_fleet_end_to_end () =
  if not (Sys.file_exists sufdec_exe) then
    Alcotest.fail "sufdec binary not built next to the tests";
  let dir = tmpdir "sepsat-fleet" in
  let socket = Filename.concat dir "fleet.sock" in
  let cache_dir = Filename.concat dir "cache" in
  let cfg =
    {
      (Fleet.default ~socket ~backends:2) with
      Fleet.f_cache_dir = Some cache_dir;
      f_workers = Some 1;
      f_timeout_s = 20.;
      f_exe = Some sufdec_exe;
    }
  in
  let fleet = Domain.spawn (fun () -> Fleet.run cfg) in
  let session = ref (Session.connect ~retries:100 socket) in
  (* Cold solve through the router (retry rides out backend startup).
     The reply must carry the router-minted trace: a fleet rid and the
     six-hop breakdown summing to the end-to-end time — the [reply] hop
     is the remainder by construction, so the sum check is really a
     check that no hop went negative or wildly over. *)
  (match solve_retrying ~path:socket session "(= x x)" with
  | Protocol.Ok_solve s -> (
    Alcotest.(check string) "valid through the fleet" "valid"
      (Protocol.verdict_to_string s.Protocol.sv_verdict);
    match s.Protocol.sv_trace with
    | None -> Alcotest.fail "fleet reply carries no trace"
    | Some tr ->
      Alcotest.(check bool) "router-minted fl- rid" true
        (String.length tr.Protocol.rt_rid > 3
        && String.sub tr.Protocol.rt_rid 0 3 = "fl-");
      Alcotest.(check (list string)) "six hops in causal order"
        [
          "router.parse"; "router.queue"; "wire"; "shard.queue";
          "shard.solve"; "reply";
        ]
        (List.map fst tr.Protocol.rt_hops);
      List.iter
        (fun (name, ms) ->
          Alcotest.(check bool) (name ^ " non-negative") true (ms >= 0.))
        tr.Protocol.rt_hops;
      let sum = List.fold_left (fun a (_, ms) -> a +. ms) 0. tr.Protocol.rt_hops in
      Alcotest.(check bool) "hops sum to the end-to-end time" true
        (Float.abs (sum -. s.Protocol.sv_time_ms)
        <= Float.max 0.05 (0.01 *. s.Protocol.sv_time_ms));
      Alcotest.(check bool) "served by a shard, not the cache" true
        (tr.Protocol.rt_served_by <> "cache"))
  | r ->
    Alcotest.failf "expected a verdict, got %s" (Protocol.reply_to_line r));
  (* Same formula again: the persistent tier answers at the router, and
     the trace says so — served_by "cache", with the lookup as a hop. *)
  (match solve_retrying ~path:socket session "(= x x)" with
  | Protocol.Ok_solve s -> (
    Alcotest.(check bool) "repeat served from cache" true
      (s.Protocol.sv_origin = Protocol.Cache_hit);
    match s.Protocol.sv_trace with
    | None -> Alcotest.fail "cache-hit reply carries no trace"
    | Some tr ->
      Alcotest.(check string) "cache hit attributed" "cache"
        tr.Protocol.rt_served_by;
      Alcotest.(check bool) "cache lookup is its own hop" true
        (List.mem_assoc "router.cache" tr.Protocol.rt_hops))
  | r ->
    Alcotest.failf "expected a cached verdict, got %s"
      (Protocol.reply_to_line r));
  (* The fleet dump nests one flight document per process: the router's
     own ring plus each backend's, the raw material of [sufdec trace]. *)
  (match Session.dump !session with
  | None -> Alcotest.fail "fleet did not answer dump"
  | Some body -> (
    match Json.parse body with
    | Error e -> Alcotest.failf "fleet dump does not parse: %s" e
    | Ok j ->
      Alcotest.(check (option string)) "fleet dump schema"
        (Some "sepsat-fleet-dump-1") (Json.mem_str "schema" j);
      Alcotest.(check bool) "router flight document present" true
        (match Json.member "router" j with
        | Some (Json.Obj _) -> true
        | _ -> false);
      let parts =
        match Json.member "backends" j with
        | Some (Json.Arr l) -> l
        | _ -> []
      in
      Alcotest.(check int) "one flight part per backend" 2
        (List.length parts);
      (* the router's hop spans and the shard's serve spans share the
         fleet rid — the property [sufdec trace] assembly rests on *)
      let rids_of flight =
        match Json.member "records" flight with
        | Some (Json.Arr rs) ->
          List.filter_map (Json.mem_str "rid") rs
          |> List.filter (fun r ->
                 String.length r > 3 && String.sub r 0 3 = "fl-")
        | _ -> []
      in
      let router_rids =
        match Json.member "router" j with
        | Some f -> rids_of f
        | None -> []
      in
      let backend_rids =
        List.concat_map
          (fun p ->
            match Json.member "flight" p with
            | Some f -> rids_of f
            | None -> [])
          parts
      in
      Alcotest.(check bool) "a fleet rid appears on both sides" true
        (List.exists (fun r -> List.mem r backend_rids) router_rids)));
  (* Invalid formula, exercising witness plumbing through the router. *)
  (match solve_retrying ~path:socket session "(= a b)" with
  | Protocol.Ok_solve s ->
    Alcotest.(check string) "invalid through the fleet" "invalid"
      (Protocol.verdict_to_string s.Protocol.sv_verdict)
  | r ->
    Alcotest.failf "expected invalid, got %s" (Protocol.reply_to_line r));
  (* Both backends live, and the stats are the merged fleet shape. *)
  Alcotest.(check bool) "both backends up" true
    (wait_until ~tries:100 ~sleep_s:0.1 (fun () ->
         up_count (fleet_stats !session) = 2));
  let j = fleet_stats !session in
  Alcotest.(check bool) "fleet marker" true
    (Json.mem_bool "fleet" j = Some true);
  Alcotest.(check bool) "disk cache stats present" true
    (Json.member "disk_cache" j <> None && Json.member "disk_cache" j <> Some Json.Null);
  (* Merged metrics: per-backend series, metadata deduplicated. *)
  (match Session.metrics !session with
  | None -> Alcotest.fail "fleet did not answer metrics"
  | Some body ->
    let count needle =
      let n = String.length needle and m = String.length body in
      let rec go i acc =
        if i + n > m then acc
        else if String.sub body i n = needle then go (i + 1) (acc + 1)
        else go (i + 1) acc
      in
      go 0 0
    in
    Alcotest.(check bool) "backend 0 series present" true
      (count "backend=\"0\"" > 0);
    Alcotest.(check bool) "backend 1 series present" true
      (count "backend=\"1\"" > 0);
    Alcotest.(check int) "TYPE line deduplicated" 1
      (count "# TYPE serve_requests counter"));
  (* SIGKILL one backend; the fleet must keep answering correctly and
     bring a replacement up. *)
  let victim =
    match backends_of (fleet_stats !session) with
    | b :: _ -> (
      match Json.member "pid" b with
      | Some (Json.Num p) -> int_of_float p
      | _ -> Alcotest.fail "backend pid missing from stats")
    | [] -> Alcotest.fail "no backends in stats"
  in
  Unix.kill victim Sys.sigkill;
  for i = 0 to 9 do
    match
      solve_retrying ~path:socket session (Printf.sprintf "(= v%d v%d)" i i)
    with
    | Protocol.Ok_solve s ->
      Alcotest.(check string)
        (Printf.sprintf "verdict %d during recovery" i)
        "valid"
        (Protocol.verdict_to_string s.Protocol.sv_verdict)
    | r ->
      Alcotest.failf "lost request %d during recovery: %s" i
        (Protocol.reply_to_line r)
  done;
  Alcotest.(check bool) "killed backend restarted" true
    (wait_until ~tries:200 ~sleep_s:0.1 (fun () ->
         let j = fleet_stats !session in
         up_count j = 2
         && List.exists
              (fun b ->
                match Json.member "spawns" b with
                | Some (Json.Num s) -> s >= 2.
                | _ -> false)
              (backends_of j)));
  (* Graceful shutdown: drain, propagate, reap, bye. *)
  Session.shutdown !session;
  Session.close !session;
  Domain.join fleet;
  Alcotest.(check bool) "socket removed on shutdown" false
    (Sys.file_exists socket);
  (* Restart the fleet on the same cache dir: verdicts survive. *)
  let fleet2 = Domain.spawn (fun () -> Fleet.run cfg) in
  let session2 = ref (Session.connect ~retries:100 socket) in
  (match solve_retrying ~path:socket session2 "(= x x)" with
  | Protocol.Ok_solve s ->
    Alcotest.(check bool) "verdict survived the restart" true
      (s.Protocol.sv_origin = Protocol.Cache_hit);
    Alcotest.(check string) "and is still valid" "valid"
      (Protocol.verdict_to_string s.Protocol.sv_verdict)
  | r ->
    Alcotest.failf "expected a cached verdict after restart, got %s"
      (Protocol.reply_to_line r));
  let j2 = fleet_stats !session2 in
  (match Json.member "disk_cache" j2 with
  | Some d ->
    let num k = Option.value ~default:0. (Json.mem_num k d) in
    Alcotest.(check bool) "cache loaded from disk" true (num "loaded" >= 1.);
    Alcotest.(check bool) "hit counter > 0 after restart" true
      (num "hits" >= 1.)
  | None -> Alcotest.fail "disk cache stats missing after restart");
  Session.shutdown !session2;
  Session.close !session2;
  Domain.join fleet2

let () =
  Random.self_init ();
  Alcotest.run "fleet"
    [
      ( "ring",
        [
          Alcotest.test_case "basics" `Quick test_ring_basics;
          Alcotest.test_case "distribution bounds" `Quick
            test_ring_distribution;
          Alcotest.test_case "minimal remapping on join" `Quick
            test_ring_remap_on_join;
          Alcotest.test_case "survivors keep keys on leave" `Quick
            test_ring_remap_on_leave;
          QCheck_alcotest.to_alcotest prop_ring_affinity;
        ] );
      ( "poll",
        [ Alcotest.test_case "readiness and interest" `Quick test_poll_readiness ] );
      ( "lineconn",
        [
          Alcotest.test_case "read banking" `Quick test_lineconn_read_banking;
          Alcotest.test_case "eof with pending batch" `Quick
            test_lineconn_eof_with_pending;
          Alcotest.test_case "write queue" `Quick test_lineconn_write_queue;
        ] );
      ( "disk cache",
        [
          Alcotest.test_case "survives restart" `Quick test_disk_cache_restart;
          Alcotest.test_case "tolerates a torn tail" `Quick
            test_disk_cache_torn_tail;
        ] );
      ( "warm",
        [
          Alcotest.test_case "protocol roundtrip" `Quick
            test_protocol_warm_roundtrip;
          Alcotest.test_case "engine cache seeding" `Quick test_engine_warm;
        ] );
      ( "telemetry",
        [ Alcotest.test_case "const labels" `Quick test_prom_const_labels ] );
      ( "retry",
        [
          Alcotest.test_case "busy then ok" `Quick
            test_session_retry_busy_then_ok;
          Alcotest.test_case "budget exhaustion" `Quick
            test_session_retry_exhaustion;
        ] );
      ( "fleet",
        [ Alcotest.test_case "end to end" `Quick test_fleet_end_to_end ] );
    ]
