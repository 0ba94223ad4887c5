(* Tests of the observability subsystem: the event store across domains,
   its views (span rollup, flight dump, Chrome trace), the metrics
   registry and progress snapshots.

   Store state is process-global, so every test starts from [fresh ()]. *)

module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Progress = Sepsat_obs.Progress
module Prom = Sepsat_obs.Prom
module Window = Sepsat_obs.Window
module Log = Sepsat_obs.Log
module Flight = Sepsat_obs.Flight
module Trace_ctx = Sepsat_obs.Trace_ctx

let fresh ?capacity () =
  Obs.disable ();
  Obs.reset ();
  Metrics.reset ();
  Progress.set_callback None;
  Obs.enable ?capacity ()

(* -- Strict JSON reading with raising accessors ------------------------------ *)

module Json = Sepsat_util.Json

let parse s =
  match Json.parse s with Ok j -> j | Error e -> Alcotest.fail e

let member k j =
  match Json.member k j with
  | Some v -> v
  | None -> Alcotest.fail ("no member " ^ k)

let str = function Json.Str s -> s | _ -> Alcotest.fail "not a string"

let num = function Json.Num f -> f | _ -> Alcotest.fail "not a number"

let metrics_text () = Json.to_string (Metrics.to_json ())

let in_request rid f = Trace_ctx.with_ctx (Trace_ctx.make ~rid ()) f

(* Span records as (name, start, end) on the mono clock, seconds. *)
let spans () =
  List.filter_map
    (fun r ->
      if r.Obs.fr_kind = Obs.Span then
        Some
          ( r.Obs.fr_name,
            r.Obs.fr_mono -. (r.Obs.fr_dur_ms /. 1000.),
            r.Obs.fr_mono )
      else None)
    (Obs.records ())

let span_names () = List.map (fun (n, _, _) -> n) (spans ())

(* -- Disabled mode -------------------------------------------------------- *)

let test_disabled_no_events () =
  Obs.disable ();
  Obs.reset ();
  Metrics.reset ();
  let c = Metrics.counter "test.disabled" in
  let r = Obs.span "dead" (fun () -> 42) in
  Obs.instant "dead.instant";
  Obs.record Obs.Progress "dead.progress";
  Metrics.incr c;
  Alcotest.(check int) "span is transparent" 42 r;
  Alcotest.(check int) "no records" 0 (List.length (Obs.records ()));
  Alcotest.(check int) "no metric update" 0 (Metrics.get c);
  Alcotest.(check bool) "still disabled" false (Obs.enabled ())

(* -- Span collection ------------------------------------------------------ *)

(* Starts are derived (end minus duration), so nesting holds to within
   float rounding of the clock's magnitude. *)
let eps = 1e-6

let test_span_basic () =
  fresh ();
  let r =
    Obs.span ~cat:"t" "outer" (fun () ->
        Obs.span ~cat:"t" "inner" (fun () -> 7))
  in
  Alcotest.(check int) "result" 7 r;
  let spans = spans () in
  Alcotest.(check int) "two spans" 2 (List.length spans);
  let find n = List.find (fun (n', _, _) -> n' = n) spans in
  let _, os, oe = find "outer" and _, is, ie = find "inner" in
  Alcotest.(check bool) "inner starts inside" true (is >= os -. eps);
  Alcotest.(check bool) "inner ends inside" true (ie <= oe)

let test_span_exception () =
  fresh ();
  (try Obs.span "boom" (fun () -> failwith "x") with Failure _ -> ());
  Alcotest.(check (list string)) "span recorded on raise" [ "boom" ]
    (span_names ())

let test_timed () =
  fresh ();
  let r, dt = Obs.timed "timed.work" (fun () -> 5) in
  Alcotest.(check int) "result" 5 r;
  Alcotest.(check bool) "non-negative elapsed" true (dt >= 0.);
  Alcotest.(check (list string)) "one span record" [ "timed.work" ]
    (span_names ());
  Obs.disable ();
  let r', dt' = Obs.timed "timed.off" (fun () -> 6) in
  Alcotest.(check int) "disabled result" 6 r';
  Alcotest.(check bool) "still measures when disabled" true (dt' >= 0.)

let test_ring_overflow () =
  fresh ~capacity:16 ();
  for i = 0 to 99 do
    Obs.record ~data:[ ("i", string_of_int i) ] Obs.Event "tick"
  done;
  let recs = Obs.records () in
  Alcotest.(check int) "ring keeps capacity" 16 (List.length recs);
  Alcotest.(check int) "dropped counted" 84 (Obs.dropped ());
  (* The survivors are the newest records, in order. *)
  Alcotest.(check (list int))
    "newest survive"
    (List.init 16 (fun i -> 84 + i))
    (List.map (fun r -> int_of_string (List.assoc "i" r.Obs.fr_data)) recs)

let test_span_summary () =
  fresh ();
  Obs.span "a" (fun () -> Obs.span "b" (fun () -> ()));
  Obs.span "b" (fun () -> ());
  Obs.instant "b";
  let stats = Obs.span_summary (Obs.records ()) in
  let find n = List.find (fun s -> s.Obs.ss_name = n) stats in
  Alcotest.(check int) "a count" 1 (find "a").Obs.ss_count;
  Alcotest.(check int) "b count: spans only" 2 (find "b").Obs.ss_count;
  Alcotest.(check bool) "totals non-negative" true
    (List.for_all (fun s -> s.Obs.ss_total >= 0.) stats)

(* -- Concurrent domain emission ------------------------------------------- *)

(* Each domain runs a random tree of nested spans. The collected store must
   then be, per domain: timestamp-monotone, and well-nested — any two spans
   are either disjoint or one contains the other. *)
let prop_concurrent_well_nested =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 4)
        (list_size (int_range 1 30) (int_range 0 3)))
  in
  QCheck2.Test.make ~name:"concurrent spans are well-nested per domain"
    ~count:30 gen (fun (n_domains, shape) ->
      fresh ();
      let work d =
        List.iteri
          (fun i depth ->
            let rec nest k =
              Obs.span
                (Printf.sprintf "d%d.s%d.%d" d i k)
                (fun () -> if k < depth then nest (k + 1))
            in
            nest 0;
            Obs.instant "work")
          shape
      in
      let domains =
        List.init n_domains (fun d -> Domain.spawn (fun () -> work d))
      in
      List.iter Domain.join domains;
      let recs = Obs.records () in
      let tids =
        List.sort_uniq compare (List.map (fun r -> r.Obs.fr_tid) recs)
      in
      List.for_all
        (fun tid ->
          let mine = List.filter (fun r -> r.Obs.fr_tid = tid) recs in
          (* monotone timestamps per domain *)
          let rec monotone = function
            | a :: (b :: _ as rest) ->
              a.Obs.fr_mono <= b.Obs.fr_mono && monotone rest
            | _ -> true
          in
          let spans =
            List.filter_map
              (fun r ->
                if r.Obs.fr_kind = Obs.Span then
                  Some
                    ( r.Obs.fr_mono -. (r.Obs.fr_dur_ms /. 1000.),
                      r.Obs.fr_mono )
                else None)
              mine
          in
          let disjoint_or_nested (s1, e1) (s2, e2) =
            e1 <= s2 +. eps || e2 <= s1 +. eps
            || (s1 <= s2 +. eps && e2 <= e1)
            || (s2 <= s1 +. eps && e1 <= e2)
          in
          let rec pairs_ok = function
            | [] -> true
            | x :: rest ->
              List.for_all (disjoint_or_nested x) rest && pairs_ok rest
          in
          monotone mine && pairs_ok spans)
        tids)

(* -- Chrome trace view ---------------------------------------------------- *)

let chrome_items () =
  match member "traceEvents" (parse (Flight.assemble [ Flight.local () ])) with
  | Json.Arr items -> items
  | _ -> Alcotest.fail "traceEvents is not an array"

let collect_some_events () =
  fresh ();
  Obs.name_thread "main";
  Obs.span ~cat:"pipeline" "outer" (fun () ->
      Obs.span ~cat:"pipeline" "inner" (fun () ->
          Obs.record ~data:[ ("counter", "3") ] Obs.Progress "t.progress");
      Obs.instant ~cat:"pipeline" "mark \"quoted\"");
  chrome_items ()

let test_chrome_valid_json () =
  let items = collect_some_events () in
  Alcotest.(check bool) "non-empty" true (items <> []);
  List.iter
    (fun item ->
      let ph = str (member "ph" item) in
      Alcotest.(check bool) "known phase" true
        (List.mem ph [ "X"; "i"; "C"; "M" ]);
      if ph <> "M" then
        Alcotest.(check bool) "ts non-negative" true
          (num (member "ts" item) >= 0.))
    items;
  let has ph name =
    List.exists
      (fun i -> str (member "ph" i) = ph && str (member "name" i) = name)
      items
  in
  Alcotest.(check bool) "spans are X events" true
    (has "X" "outer" && has "X" "inner");
  Alcotest.(check bool) "escaped instant" true (has "i" "mark \"quoted\"");
  Alcotest.(check bool) "progress field is a counter track" true
    (has "C" "t.counter")

let test_chrome_thread_names () =
  let names =
    List.filter_map
      (fun item ->
        if
          str (member "ph" item) = "M"
          && str (member "name" item) = "thread_name"
        then Some (str (member "name" (member "args" item)))
        else None)
      (collect_some_events ())
  in
  Alcotest.(check bool) "main lane named" true (List.mem "main" names)

(* -- Trace context and rid-tagged spans ------------------------------------ *)

let test_trace_ctx_basic () =
  Alcotest.(check string) "no ambient rid" "" (Trace_ctx.rid ());
  in_request "rq-7" (fun () ->
      Alcotest.(check string) "ambient rid" "rq-7" (Trace_ctx.rid ()));
  Alcotest.(check string) "restored after scope" "" (Trace_ctx.rid ());
  (try in_request "rq-doomed" (fun () -> failwith "boom")
   with Failure _ -> ());
  Alcotest.(check string) "restored after exception" "" (Trace_ctx.rid ())

let test_span_rid_tagging () =
  fresh ();
  in_request "rq-42" (fun () ->
      Obs.span "tagged" (fun () -> Obs.span "tagged.child" (fun () -> ())));
  Obs.span "untagged" (fun () -> ());
  Obs.instant "mark";
  let rids =
    List.map (fun r -> (r.Obs.fr_name, r.Obs.fr_rid)) (Obs.records ())
  in
  Alcotest.(check string) "request root tagged" "rq-42"
    (List.assoc "tagged" rids);
  Alcotest.(check string) "descendant tagged" "rq-42"
    (List.assoc "tagged.child" rids);
  Alcotest.(check string) "outside a request: empty" ""
    (List.assoc "untagged" rids);
  Alcotest.(check string) "instant outside: empty" "" (List.assoc "mark" rids)

(* The handoff the serve engine's workers use: the job carries its rid,
   the worker domain rebuilds the context with [make] and installs it with
   [with_ctx] — the worker's spans then carry the request's rid. *)
let test_trace_ctx_cross_domain () =
  fresh ();
  let tctx = Trace_ctx.make ~rid:"rq-far" () in
  let d =
    Domain.spawn (fun () ->
        Trace_ctx.with_ctx tctx (fun () ->
            Obs.span "remote.work" (fun () -> ())))
  in
  Domain.join d;
  let rid =
    List.find_map
      (fun r ->
        if r.Obs.fr_name = "remote.work" then Some r.Obs.fr_rid else None)
      (Obs.records ())
  in
  Alcotest.(check (option string)) "adopted rid" (Some "rq-far") rid

let test_chrome_rid_args () =
  fresh ();
  Obs.name_thread "main";
  in_request "rq-chrome" (fun () ->
      Obs.span ~cat:"serve" "req" (fun () -> Obs.instant "req.mark"));
  Obs.span "plain" (fun () -> ());
  let items = chrome_items () in
  let rid_of name ph =
    List.find_map
      (fun item ->
        if
          str (member "ph" item) = ph
          && str (member "name" item) = name
        then Some (str (member "rid" (member "args" item)))
        else None)
      items
  in
  Alcotest.(check (option string)) "X event carries rid"
    (Some "rq-chrome") (rid_of "req" "X");
  Alcotest.(check (option string)) "instant carries rid"
    (Some "rq-chrome") (rid_of "req.mark" "i");
  Alcotest.(check (option string)) "rid-less span has an empty rid"
    (Some "") (rid_of "plain" "X")

(* -- One store, three views ------------------------------------------------ *)

(* A nested span tree under a rid, one progress tick and one log line,
   read back through every view: the --stats rollup, the flight dump
   (exactly, through its decoder) and the local Chrome trace. *)
let test_one_store_three_views () =
  fresh ();
  Obs.name_thread "views-main";
  in_request "rq-views" (fun () ->
      Obs.span "root" (fun () ->
          Obs.span "child" (fun () -> ());
          Obs.span "child" (fun () ->
              Progress.tick ~conflicts:1024 ~decisions:1 ~propagations:1
                ~learnts:7 ~trail:1 ~vars:2 ~level:0
                ~started:(Unix.gettimeofday ()));
          Log.event "views.log" [ ("n", Log.I 1) ]));
  let recs = Obs.records () in
  (* --stats *)
  let stats = Obs.span_summary recs in
  let count n = (List.find (fun s -> s.Obs.ss_name = n) stats).Obs.ss_count in
  Alcotest.(check int) "two span names" 2 (List.length stats);
  Alcotest.(check int) "root once" 1 (count "root");
  Alcotest.(check int) "child twice" 2 (count "child");
  (* flight dump: to_json -> source_of_json is exact *)
  let src =
    Flight.source_of_json ~label:"me"
      (parse (Json.to_string (Flight.to_json ())))
  in
  Alcotest.(check bool) "dump decodes to the live records" true
    (src.Flight.src_records = recs);
  Alcotest.(check (list string)) "one record per event"
    [ "span"; "progress"; "span"; "log"; "span" ]
    (List.map
       (fun r ->
         match r.Obs.fr_kind with
         | Obs.Span -> "span"
         | Obs.Progress -> "progress"
         | Obs.Log -> "log"
         | Obs.Event -> "event")
       recs);
  (* local Chrome trace *)
  let items = chrome_items () in
  let xs =
    List.filter (fun i -> str (member "ph" i) = "X") items
  in
  Alcotest.(check int) "three X events" 3 (List.length xs);
  Alcotest.(check bool) "X events carry the rid" true
    (List.for_all
       (fun i -> str (member "rid" (member "args" i)) = "rq-views")
       xs);
  Alcotest.(check bool) "sat.conflicts counter track" true
    (List.exists
       (fun i ->
         str (member "ph" i) = "C"
         && str (member "name" i) = "sat.conflicts"
         && num (member "value" (member "args" i)) = 1024.)
       items);
  Alcotest.(check bool) "lane thread_name" true
    (List.exists
       (fun i ->
         str (member "ph" i) = "M"
         && str (member "name" i) = "thread_name"
         && str (member "name" (member "args" i)) = "views-main")
       items)

(* -- Metrics -------------------------------------------------------------- *)

let test_metrics_basic () =
  fresh ();
  let c = Metrics.counter "m.count" in
  let g = Metrics.gauge "m.gauge" in
  let h = Metrics.histogram "m.hist" in
  Metrics.incr c;
  Metrics.add c 4;
  Metrics.set g 2.5;
  Metrics.observe h 0.001;
  Metrics.observe h 10.;
  Alcotest.(check int) "counter" 5 (Metrics.get c);
  (match List.assoc "m.gauge" (Metrics.snapshot ()) with
  | Metrics.Gauge v -> Alcotest.(check (float 1e-9)) "gauge" 2.5 v
  | _ -> Alcotest.fail "gauge kind");
  (match List.assoc "m.hist" (Metrics.snapshot ()) with
  | Metrics.Histogram { count; sum; buckets; _ } ->
    Alcotest.(check int) "hist count" 2 count;
    Alcotest.(check (float 1e-9)) "hist sum" 10.001 sum;
    Alcotest.(check int) "hist binned" 2
      (List.fold_left (fun acc (_, n) -> acc + n) 0 buckets)
  | _ -> Alcotest.fail "hist kind");
  (* registration is idempotent, kind mismatch rejected *)
  Metrics.incr (Metrics.counter "m.count");
  Alcotest.(check int) "same handle" 6 (Metrics.get c);
  Alcotest.check_raises "kind mismatch"
    (Invalid_argument "Metrics: \"m.count\" is already a counter") (fun () ->
      ignore (Metrics.gauge "m.count"));
  Metrics.reset ();
  Alcotest.(check int) "reset zeroes" 0 (Metrics.get c)

let test_metrics_json () =
  fresh ();
  Metrics.add (Metrics.counter "j.c") 3;
  Metrics.set (Metrics.gauge "j.g") 1.5;
  Metrics.observe (Metrics.histogram "j.h") 0.01;
  let json = parse (metrics_text ()) in
  Alcotest.(check (float 1e-9)) "counter" 3. (num (member "j.c" json));
  Alcotest.(check (float 1e-9)) "gauge" 1.5 (num (member "j.g" json));
  let h = member "j.h" json in
  Alcotest.(check (float 1e-9)) "hist count" 1. (num (member "count" h));
  Obs.disable ();
  Obs.reset ();
  Metrics.reset ();
  Alcotest.(check string) "empty registry after reset keeps shape" "{"
    (String.sub (metrics_text ()) 0 1)

let test_metrics_json_strict () =
  fresh ();
  let h = Metrics.histogram "strict.h" in
  Metrics.observe h 1e-6;
  Metrics.observe h 1e9;  (* lands in the +inf bin *)
  let text = metrics_text () in
  (* The old non-finite encoding must be gone entirely... *)
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no 1e999 lexeme" false (contains text "1e999");
  (* ...and a strict parser must accept the document with finite bounds
     only; the +inf bin is implicit (count - listed bins). *)
  let j = parse text in
  (match member "strict.h" j with
  | Json.Obj _ as hj ->
    let count = int_of_float (num (member "count" hj)) in
    Alcotest.(check int) "count sees both" 2 count;
    (match member "buckets" hj with
    | Json.Arr pairs ->
      let listed =
        List.map
          (function
            | Json.Arr [ ub; n ] -> (num ub, int_of_float (num n))
            | _ -> Alcotest.fail "bucket pair shape")
          pairs
      in
      List.iter
        (fun (ub, _) ->
          Alcotest.(check bool) "finite bound" true (Float.is_finite ub))
        listed;
      let binned = List.fold_left (fun acc (_, n) -> acc + n) 0 listed in
      Alcotest.(check int) "implicit +inf bin = count - listed" 1
        (count - binned)
    | _ -> Alcotest.fail "buckets shape")
  | _ -> Alcotest.fail "histogram shape")

let test_metrics_exemplars () =
  fresh ();
  let h = Metrics.histogram ~buckets:[| 0.1; 1.0 |] "ex.h" in
  Metrics.observe h 0.05;
  Alcotest.(check int) "rid-less observations leave no exemplar" 0
    (List.length (Metrics.exemplars h));
  Metrics.observe ~rid:"a" h 0.03;
  Metrics.observe ~rid:"b" h 0.07;
  Metrics.observe ~rid:"c" h 0.01;  (* smaller than b: must not displace *)
  Metrics.observe ~rid:"d" h 0.5;
  Metrics.observe ~rid:"e" h 5.0;
  let exes = Metrics.exemplars h in
  Alcotest.(check int) "one exemplar per touched bucket" 3
    (List.length exes);
  let find ub = snd (List.find (fun (u, _) -> u = ub) exes) in
  Alcotest.(check string) "keep-max in the first bucket" "b"
    (find 0.1).Metrics.ex_rid;
  Alcotest.(check (float 1e-9)) "its value" 0.07 (find 0.1).Metrics.ex_value;
  Alcotest.(check string) "buckets are separate" "d"
    (find 1.0).Metrics.ex_rid;
  Alcotest.(check string) "+inf bucket has one too" "e"
    (find infinity).Metrics.ex_rid;
  (match List.rev exes with
  | (ub, _) :: _ -> Alcotest.(check bool) "+inf listed last" true (ub = infinity)
  | [] -> Alcotest.fail "no exemplars");
  Metrics.reset ();
  Alcotest.(check int) "reset clears exemplars" 0
    (List.length (Metrics.exemplars h))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_metrics_json_exemplars () =
  fresh ();
  let h = Metrics.histogram ~buckets:[| 1.0 |] "exj.h" in
  Metrics.observe h 0.5;
  Alcotest.(check bool) "no exemplars key without exemplars" false
    (contains (metrics_text ()) "exemplars");
  Metrics.observe ~rid:"rq-j" h 0.7;
  let j = parse (metrics_text ()) in
  (match member "exemplars" (member "exj.h" j) with
  | Json.Arr [ e ] ->
    Alcotest.(check string) "rid" "rq-j" (str (member "rid" e));
    Alcotest.(check (float 1e-9)) "value" 0.7
      (num (member "value" e))
  | _ -> Alcotest.fail "exemplars shape")

(* A reader racing [reset] against concurrent [observe]s must never see a
   snapshot claiming observations it cannot locate in the buckets: the
   count is derived from the bins, so count = sum(bins) by construction. *)
let test_metrics_reset_observe_race () =
  fresh ();
  let h = Metrics.histogram "race.h" in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        while not (Atomic.get stop) do
          Metrics.observe h 0.01
        done)
  in
  for _ = 1 to 200 do
    Metrics.reset ();
    match List.assoc "race.h" (Metrics.snapshot ()) with
    | Metrics.Histogram { count; buckets; _ } ->
      let binned = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
      Alcotest.(check int) "count = sum of bins" binned count;
      if count > 0 then
        Alcotest.(check bool) "count > 0 implies a non-zero bucket" true
          (List.exists (fun (_, n) -> n > 0) buckets)
    | _ -> Alcotest.fail "hist kind"
  done;
  Atomic.set stop true;
  Domain.join writer

(* -- Prometheus exposition ------------------------------------------------- *)

let test_prom_sanitize () =
  Alcotest.(check string) "dots" "serve_request_s"
    (Prom.sanitize_name "serve.request_s");
  Alcotest.(check string) "digit first" "_0abc" (Prom.sanitize_name "0abc");
  Alcotest.(check string) "empty" "_" (Prom.sanitize_name "");
  Alcotest.(check string) "colon kept" "a:b" (Prom.sanitize_name "a:b");
  Alcotest.(check string) "label escapes" "a\\\\b\\\"c\\nd"
    (Prom.escape_label "a\\b\"c\nd");
  Alcotest.(check string) "help escapes quotes unchanged" "a\\\\b\"c\\nd"
    (Prom.escape_help "a\\b\"c\nd");
  Alcotest.(check string) "inf" "+Inf" (Prom.number infinity);
  Alcotest.(check string) "neg inf" "-Inf" (Prom.number neg_infinity);
  Alcotest.(check string) "NaN" "NaN" (Prom.number nan);
  Alcotest.(check string) "integral" "42" (Prom.number 42.)

(* Parse an exposition document into (comment lines, sample lines). *)
let prom_samples text =
  String.split_on_char '\n' text
  |> List.filter (fun l -> l <> "" && l.[0] <> '#')
  |> List.map (fun l ->
         match String.rindex_opt l ' ' with
         | Some i ->
           ( String.sub l 0 i,
             float_of_string (String.sub l (i + 1) (String.length l - i - 1))
           )
         | None -> Alcotest.fail ("unparsable sample line: " ^ l))

let test_prom_render_conformance () =
  fresh ();
  Metrics.add (Metrics.counter "serve.requests") 7;
  Metrics.set (Metrics.gauge "serve.queue_depth") 3.;
  let h = Metrics.histogram "serve.request_s" in
  Metrics.observe h 1e-6;
  Metrics.observe h 0.5;
  Metrics.observe h 1e12;
  let text = Prom.current () in
  let samples = prom_samples text in
  let find name =
    match List.assoc_opt name samples with
    | Some v -> v
    | None -> Alcotest.fail ("missing sample " ^ name)
  in
  Alcotest.(check (float 1e-9)) "counter value" 7. (find "serve_requests");
  Alcotest.(check (float 1e-9)) "gauge value" 3. (find "serve_queue_depth");
  Alcotest.(check (float 1e-9)) "histogram count" 3.
    (find "serve_request_s_count");
  Alcotest.(check bool) "histogram sum" true
    (find "serve_request_s_sum" > 0.5);
  (* TYPE lines name the sanitized metric with the right kind. *)
  let has_line l = List.mem l (String.split_on_char '\n' text) in
  Alcotest.(check bool) "counter TYPE" true
    (has_line "# TYPE serve_requests counter");
  Alcotest.(check bool) "gauge TYPE" true
    (has_line "# TYPE serve_queue_depth gauge");
  Alcotest.(check bool) "histogram TYPE" true
    (has_line "# TYPE serve_request_s histogram");
  (* Buckets: cumulative, monotone, ending at le="+Inf" = _count. *)
  let buckets =
    List.filter
      (fun (name, _) ->
        String.length name > 24
        && String.sub name 0 24 = "serve_request_s_bucket{l")
      samples
  in
  Alcotest.(check bool) "has buckets" true (buckets <> []);
  let values = List.map snd buckets in
  let rec monotone = function
    | a :: (b :: _ as rest) -> a <= b && monotone rest
    | _ -> true
  in
  Alcotest.(check bool) "cumulative buckets are monotone" true
    (monotone values);
  Alcotest.(check (float 1e-9)) "+Inf bucket equals count" 3.
    (find "serve_request_s_bucket{le=\"+Inf\"}")

let test_prom_exemplars () =
  fresh ();
  let h = Metrics.histogram ~buckets:[| 1.0 |] "expm.h" in
  Metrics.observe ~rid:"rq-slow" h 0.7;
  let text = Prom.current () in
  (* OpenMetrics exemplar syntax, parsed as a trailing comment by plain
     Prometheus text parsers. *)
  Alcotest.(check bool) "bucket line carries the exemplar" true
    (contains text "expm_h_bucket{le=\"1\"} 1 # {rid=\"rq-slow\"} 0.7 ");
  (* The un-exemplared surfaces stay exactly as before. *)
  Alcotest.(check bool) "sum line untouched" true
    (contains text "expm_h_sum 0.7\n");
  Alcotest.(check bool) "+Inf line untouched" true
    (contains text "expm_h_bucket{le=\"+Inf\"} 1\n")

let test_prom_escaped_help () =
  let text =
    Prom.render [ ("weird\nname", Metrics.Counter 1) ]
  in
  (* The original name survives, escaped, in HELP; the sample line uses the
     sanitized name. *)
  Alcotest.(check bool) "escaped HELP" true
    (List.mem "# HELP weird_name sepsat metric weird\\nname"
       (String.split_on_char '\n' text));
  Alcotest.(check (float 1e-9)) "sample" 1.
    (List.assoc "weird_name" (prom_samples text))

(* -- Rolling window quantiles ---------------------------------------------- *)

let test_window_basic () =
  let w = Window.create ~capacity:4 () in
  Alcotest.(check int) "empty length" 0 (Window.length w);
  Alcotest.(check (float 1e-9)) "empty quantile" 0. (Window.quantile w 0.5);
  List.iter (Window.add w) [ 1.; 2.; 3.; 4. ];
  Alcotest.(check (float 1e-9)) "p0 = min" 1. (Window.quantile w 0.);
  Alcotest.(check (float 1e-9)) "p100 = max" 4. (Window.quantile w 1.);
  Alcotest.(check (float 1e-9)) "p50 interpolates" 2.5 (Window.quantile w 0.5);
  (* Ring wrap: the window slides to the newest [capacity] values. *)
  List.iter (Window.add w) [ 10.; 20.; 30.; 40. ];
  Alcotest.(check int) "length capped" 4 (Window.length w);
  Alcotest.(check int) "total keeps counting" 8 (Window.total w);
  Alcotest.(check (float 1e-9)) "old values evicted" 10.
    (Window.quantile w 0.);
  Window.clear w;
  Alcotest.(check int) "clear empties" 0 (Window.length w)

let test_window_exemplar () =
  let w = Window.create ~capacity:8 () in
  Alcotest.(check bool) "empty window: none" true
    (Window.exemplar w 0.99 = None);
  Window.add ~rid:"fast" w 1.;
  Window.add ~rid:"slow" w 100.;
  Window.add ~rid:"mid" w 10.;
  (match Window.exemplar w 0.99 with
  | Some (v, rid) ->
    Alcotest.(check (float 1e-9)) "p99 value is an actual observation" 100. v;
    Alcotest.(check string) "p99 rid" "slow" rid
  | None -> Alcotest.fail "expected an exemplar");
  (match Window.exemplar w 0. with
  | Some (v, rid) ->
    Alcotest.(check (float 1e-9)) "p0 value" 1. v;
    Alcotest.(check string) "p0 rid" "fast" rid
  | None -> Alcotest.fail "expected an exemplar");
  Window.add w 1000.;
  (match Window.exemplar w 1. with
  | Some (v, rid) ->
    Alcotest.(check (float 1e-9)) "rid-less max" 1000. v;
    Alcotest.(check string) "empty rid preserved" "" rid
  | None -> Alcotest.fail "expected an exemplar")

let prop_window_quantiles =
  let gen =
    QCheck2.Gen.(
      pair (int_range 1 64)
        (list_size (int_range 1 200) (float_bound_inclusive 1000.)))
  in
  QCheck2.Test.make ~name:"window quantiles bounded and ordered" ~count:100
    gen (fun (capacity, values) ->
      let w = Window.create ~capacity () in
      List.iter (Window.add w) values;
      let contents = Array.to_list (Window.snapshot w) in
      let lo = List.fold_left min infinity contents in
      let hi = List.fold_left max neg_infinity contents in
      match Window.quantiles w [ 0.5; 0.9; 0.99 ] with
      | [ p50; p90; p99 ] ->
        lo <= p50 && p50 <= p90 && p90 <= p99 && p99 <= hi
      | _ -> false)

(* -- Structured logging ---------------------------------------------------- *)

(* Capture sink + cleanup; Log state is process-global like Obs. *)
let with_log_capture f =
  let lines = ref [] in
  Log.enable ~sink:(fun l -> lines := l :: !lines) ();
  Fun.protect ~finally:Log.disable (fun () -> f lines)

let test_log_event_shape () =
  with_log_capture (fun lines ->
      Log.event "unit.test"
        [ ("s", Log.S "a\"b"); ("i", Log.I 42); ("f", Log.F 1.5);
          ("b", Log.B true); ("nf", Log.F infinity) ];
      match !lines with
      | [ line ] ->
        let j = parse line in
        Alcotest.(check string) "event" "unit.test"
          (str (member "event" j));
        Alcotest.(check string) "level" "info"
          (str (member "level" j));
        Alcotest.(check bool) "ts present" true
          (num (member "ts" j) > 0.);
        Alcotest.(check string) "escaped string" "a\"b"
          (str (member "s" j));
        Alcotest.(check (float 1e-9)) "int" 42. (num (member "i" j));
        Alcotest.(check bool) "non-finite is null" true
          (member "nf" j = Json.Null)
      | ls -> Alcotest.fail (Printf.sprintf "expected 1 line, got %d" (List.length ls)))

let test_log_ambient_fields () =
  with_log_capture (fun lines ->
      Log.with_fields [ ("rid", Log.S "rq-test") ] (fun () ->
          Log.event "inner" [ ("k", Log.I 1) ];
          (* explicit fields shadow ambient ones *)
          Log.event "shadow" [ ("rid", Log.S "explicit") ]);
      (try
         Log.with_fields [ ("rid", Log.S "doomed") ] (fun () ->
             failwith "boom")
       with Failure _ -> ());
      Log.event "outside" [];
      match List.rev !lines with
      | [ inner; shadow; outside ] ->
        Alcotest.(check string) "ambient rid" "rq-test"
          (str (member "rid" (parse inner)));
        Alcotest.(check string) "explicit shadows ambient" "explicit"
          (str (member "rid" (parse shadow)));
        (match parse outside with
        | Json.Obj kvs ->
          Alcotest.(check bool) "context restored after exception" false
            (List.mem_assoc "rid" kvs)
        | _ -> Alcotest.fail "not an object")
      | ls -> Alcotest.fail (Printf.sprintf "expected 3 lines, got %d" (List.length ls)))

let test_log_sink_raises () =
  let lines = ref [] in
  let mode = ref `Raise in
  Log.enable
    ~sink:(fun l ->
      match !mode with `Raise -> failwith "sink down" | `Ok -> lines := l :: !lines)
    ();
  Fun.protect ~finally:Log.disable (fun () ->
      (try Log.event "lost" [ ("k", Log.I 1) ]
       with Failure _ -> ());
      mode := `Ok;
      Log.event "kept" [ ("k", Log.I 2) ];
      match !lines with
      | [ line ] ->
        (* The failed event must not leak half-formatted bytes into this
           one: the line parses and is the second event alone. *)
        let j = parse line in
        Alcotest.(check string) "second event intact" "kept"
          (str (member "event" j));
        Alcotest.(check (float 1e-9)) "field" 2.
          (num (member "k" j))
      | ls -> Alcotest.fail (Printf.sprintf "expected 1 line, got %d" (List.length ls)))

let test_log_disabled_and_levels () =
  let lines = ref [] in
  Log.enable ~level:Obs.Info ~sink:(fun l -> lines := l :: !lines) ();
  Fun.protect ~finally:Log.disable (fun () ->
      Log.event ~level:Obs.Debug "too.detailed" [];
      Log.event ~level:Obs.Quiet "never" [];
      Alcotest.(check int) "debug filtered at info" 0 (List.length !lines);
      Log.set_level Obs.Debug;
      Log.event ~level:Obs.Debug "now.visible" [];
      Alcotest.(check int) "debug passes at debug" 1 (List.length !lines));
  Log.event "after.disable" [];
  Alcotest.(check int) "disabled drops" 1 (List.length !lines);
  let a = Log.mint "t" and b = Log.mint "t" in
  Alcotest.(check bool) "minted ids unique" true (a <> b)

(* -- Progress ------------------------------------------------------------- *)

let test_progress_tick () =
  fresh ();
  let seen = ref [] in
  Progress.set_callback (Some (fun s -> seen := s :: !seen));
  Progress.tick ~conflicts:1024 ~decisions:2048 ~propagations:10_000
    ~learnts:100 ~trail:50 ~vars:200 ~level:7
    ~started:(Unix.gettimeofday ());
  (match !seen with
  | [ s ] ->
    Alcotest.(check int) "conflicts" 1024 s.Progress.p_conflicts;
    Alcotest.(check int) "level" 7 s.Progress.p_level;
    Alcotest.(check bool) "elapsed sane" true (s.Progress.p_elapsed >= 0.)
  | _ -> Alcotest.fail "expected exactly one snapshot");
  (match
     List.filter (fun r -> r.Obs.fr_kind = Obs.Progress) (Obs.records ())
   with
  | [ r ] ->
    Alcotest.(check string) "one progress record" "sat.progress" r.Obs.fr_name;
    Alcotest.(check (option string)) "conflicts in its data" (Some "1024")
      (List.assoc_opt "conflicts" r.Obs.fr_data)
  | rs ->
    Alcotest.failf "expected 1 progress record, got %d" (List.length rs));
  (* An installed callback keeps receiving ticks with obs off — that is
     how the serve engine's lane table stays live in default runs... *)
  Obs.disable ();
  seen := [];
  Progress.tick ~conflicts:1 ~decisions:1 ~propagations:1 ~learnts:1 ~trail:1
    ~vars:1 ~level:1 ~started:0.;
  Alcotest.(check int) "callback still fires when obs is off" 1
    (List.length !seen);
  (* ...but with no consumer at all, a tick is a no-op. *)
  Progress.set_callback None;
  seen := [];
  Progress.tick ~conflicts:2 ~decisions:2 ~propagations:2 ~learnts:2 ~trail:2
    ~vars:2 ~level:2 ~started:0.;
  Alcotest.(check int) "no consumer, no tick" 0 (List.length !seen)

(* A real solve with tracing on: the pipeline spans land in the stream. *)
let test_pipeline_spans_end_to_end () =
  fresh ();
  let ctx = Sepsat_suf.Ast.create_ctx () in
  let f =
    Sepsat_workloads.Cache.formula ~bug:false ctx ~n_caches:2
  in
  let r = Sepsat.Decide.decide ctx f in
  Alcotest.(check bool) "valid" true (r.Sepsat.Decide.verdict = Sepsat_sep.Verdict.Valid);
  let span_names = span_names () in
  List.iter
    (fun phase ->
      Alcotest.(check bool) (phase ^ " span present") true
        (List.mem phase span_names))
    [ "elim"; "encode"; "cnf"; "sat" ];
  List.iter
    (fun (phase, t) ->
      Alcotest.(check bool) (phase ^ " time sane") true (t >= 0.))
    r.Sepsat.Decide.phase_times;
  Alcotest.(check int) "four phases" 4
    (List.length r.Sepsat.Decide.phase_times)

(* A certified valid run: the DRUP replay is a span and a phase of its own,
   so --stats attributes the time it takes. *)
let test_certify_span_and_phase () =
  fresh ();
  let ctx = Sepsat_suf.Ast.create_ctx () in
  let f =
    match Sepsat_workloads.Suite.find "cache.5" with
    | Some b -> b.Sepsat_workloads.Suite.build ctx
    | None -> Alcotest.fail "cache.5 missing"
  in
  let r = Sepsat.Decide.decide ~certify:true ctx f in
  Alcotest.(check (option bool)) "certified" (Some true)
    r.Sepsat.Decide.certified;
  Alcotest.(check bool) "certify span present" true
    (List.mem "certify" (span_names ()));
  Alcotest.(check (list string)) "phases"
    [ "elim"; "encode"; "cnf"; "sat"; "certify" ]
    (List.map fst r.Sepsat.Decide.phase_times)

(* ------------------------------------------------------------------ *)
(* Clock: the process-global monotone-clamped wall clock behind trace
   timestamps and cross-process dump anchors *)

module Clock = Sepsat_obs.Clock

let test_clock_monotone () =
  let prev = ref (Clock.mono_now ()) in
  for _ = 1 to 10_000 do
    let v = Clock.mono_now () in
    Alcotest.(check bool) "never decreases" true (v >= !prev);
    prev := v
  done

let test_clock_pair_coherent () =
  let w1, m1 = Clock.pair () in
  let w2, m2 = Clock.pair () in
  (* the mono stamp is the wall reading clamped forward, never behind *)
  Alcotest.(check bool) "mono >= wall" true (m1 >= w1 && m2 >= w2);
  Alcotest.(check bool) "mono ordered across pairs" true (m2 >= m1);
  Alcotest.(check bool) "wall and mono agree to within the clamp" true
    (Float.abs (m1 -. w1) < 60.)

(* Domains hammering the clock concurrently: each domain's own sequence
   of readings must still be monotone — the CAS-max clamp is the shared
   state that makes this hold across all of them. *)
let test_clock_concurrent_monotone () =
  let failures = Atomic.make 0 in
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            let prev = ref (Clock.mono_now ()) in
            for _ = 1 to 50_000 do
              let v = Clock.mono_now () in
              if v < !prev then Atomic.incr failures;
              prev := v
            done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no domain ever saw time go backwards" 0
    (Atomic.get failures)

let () =
  Obs.set_level Obs.Quiet;
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "disabled mode leaves no events" `Quick
            test_disabled_no_events;
          Alcotest.test_case "nested spans" `Quick test_span_basic;
          Alcotest.test_case "span survives exceptions" `Quick
            test_span_exception;
          Alcotest.test_case "timed" `Quick test_timed;
          Alcotest.test_case "ring overflow" `Quick test_ring_overflow;
          Alcotest.test_case "span summary" `Quick test_span_summary;
          QCheck_alcotest.to_alcotest prop_concurrent_well_nested;
        ] );
      ( "clock",
        [
          Alcotest.test_case "monotone under clamping" `Quick
            test_clock_monotone;
          Alcotest.test_case "wall/mono pair coherence" `Quick
            test_clock_pair_coherent;
          Alcotest.test_case "concurrent readers stay monotone" `Quick
            test_clock_concurrent_monotone;
        ] );
      ( "trace-ctx",
        [
          Alcotest.test_case "ambient rid scoping" `Quick
            test_trace_ctx_basic;
          Alcotest.test_case "spans tagged with the request rid" `Quick
            test_span_rid_tagging;
          Alcotest.test_case "explicit cross-domain handoff" `Quick
            test_trace_ctx_cross_domain;
        ] );
      ( "chrome",
        [
          Alcotest.test_case "valid JSON" `Quick test_chrome_valid_json;
          Alcotest.test_case "thread names" `Quick test_chrome_thread_names;
          Alcotest.test_case "rid lands in event args" `Quick
            test_chrome_rid_args;
          Alcotest.test_case "one store, three views" `Quick
            test_one_store_three_views;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counters, gauges, histograms" `Quick
            test_metrics_basic;
          Alcotest.test_case "json snapshot" `Quick test_metrics_json;
          Alcotest.test_case "strict json: finite bounds only" `Quick
            test_metrics_json_strict;
          Alcotest.test_case "per-bucket exemplars: keep-max, reset" `Quick
            test_metrics_exemplars;
          Alcotest.test_case "exemplars in the json snapshot" `Quick
            test_metrics_json_exemplars;
          Alcotest.test_case "reset/observe race keeps count consistent"
            `Quick test_metrics_reset_observe_race;
        ] );
      ( "prometheus",
        [
          Alcotest.test_case "name/label/number rendering" `Quick
            test_prom_sanitize;
          Alcotest.test_case "exposition conformance" `Quick
            test_prom_render_conformance;
          Alcotest.test_case "OpenMetrics exemplar suffix" `Quick
            test_prom_exemplars;
          Alcotest.test_case "HELP escaping" `Quick test_prom_escaped_help;
        ] );
      ( "window",
        [
          Alcotest.test_case "ring, quantiles, wrap" `Quick test_window_basic;
          Alcotest.test_case "quantile exemplar is a real observation"
            `Quick test_window_exemplar;
          QCheck_alcotest.to_alcotest prop_window_quantiles;
        ] );
      ( "log",
        [
          Alcotest.test_case "event shape" `Quick test_log_event_shape;
          Alcotest.test_case "ambient correlation fields" `Quick
            test_log_ambient_fields;
          Alcotest.test_case "raising sink does not corrupt later events"
            `Quick test_log_sink_raises;
          Alcotest.test_case "levels, disable, mint" `Quick
            test_log_disabled_and_levels;
        ] );
      ( "progress",
        [ Alcotest.test_case "tick" `Quick test_progress_tick ] );
      ( "pipeline",
        [
          Alcotest.test_case "end-to-end spans" `Quick
            test_pipeline_spans_end_to_end;
          Alcotest.test_case "certify span and phase" `Quick
            test_certify_span_and_phase;
        ] );
    ]
