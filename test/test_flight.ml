(* Tests of the flight recorder: ring discipline, tear-free concurrent
   recording, JSON dumps (on demand, to file, on signal) and the ambient
   rid default.

   Flight state is process-global, so every test starts from [fresh ()]. *)

module Flight = Sepsat_obs.Flight
module Trace_ctx = Sepsat_obs.Trace_ctx
module Obs = Sepsat_obs.Obs
module Log = Sepsat_obs.Log
module Json = Sepsat_util.Json

let fresh ?capacity () =
  Flight.disable ();
  Flight.reset ();
  Obs.disable ();
  Obs.reset ();
  Flight.enable ?capacity ()

let test_disabled_no_records () =
  Flight.disable ();
  Flight.reset ();
  Flight.record Flight.Event "dead";
  Alcotest.(check int) "no records" 0 (List.length (Flight.records ()));
  Alcotest.(check bool) "still disabled" false (Flight.enabled ())

let test_record_fields () =
  fresh ();
  Flight.record ~rid:"rq-1" ~dur_ms:2.5 ~data:[ ("k", "v") ] Flight.Span
    "solve";
  Trace_ctx.with_rid "rq-ambient" (fun () ->
      Flight.record Flight.Event "mark");
  match Flight.records () with
  | [ a; b ] ->
    Alcotest.(check string) "name" "solve" a.Flight.fr_name;
    Alcotest.(check string) "explicit rid" "rq-1" a.Flight.fr_rid;
    Alcotest.(check (float 1e-9)) "duration" 2.5 a.Flight.fr_dur_ms;
    Alcotest.(check (list (pair string string))) "payload" [ ("k", "v") ]
      a.Flight.fr_data;
    Alcotest.(check bool) "kind" true (a.Flight.fr_kind = Flight.Span);
    Alcotest.(check string) "ambient rid is the default" "rq-ambient"
      b.Flight.fr_rid;
    Alcotest.(check bool) "timestamps ordered" true
      (a.Flight.fr_ts <= b.Flight.fr_ts)
  | rs -> Alcotest.fail (Printf.sprintf "expected 2 records, got %d"
                           (List.length rs))

let test_ring_overwrite_keeps_newest () =
  fresh ~capacity:16 ();
  for i = 0 to 99 do
    Flight.record ~data:[ ("i", string_of_int i) ] Flight.Event "tick"
  done;
  let rs = Flight.records () in
  Alcotest.(check int) "ring keeps capacity" 16 (List.length rs);
  Alcotest.(check int) "dropped counted" 84 (Flight.dropped ());
  (* Timestamps of back-to-back records can collide at clock resolution,
     so assert the surviving *set*, not the sort order. *)
  let values =
    List.map (fun r -> int_of_string (List.assoc "i" r.Flight.fr_data)) rs
    |> List.sort compare
  in
  Alcotest.(check (list int)) "exactly the newest survive"
    (List.init 16 (fun i -> 84 + i))
    values

(* Obs spans double-record into the flight ring even with the span
   collector off — this is what makes a default server debuggable. The
   span record carries the request rid and the span path. *)
let test_spans_feed_flight () =
  fresh ();
  Alcotest.(check bool) "obs collector stays off" false (Obs.enabled ());
  Trace_ctx.with_rid "rq-f" (fun () ->
      Obs.span "outer" (fun () -> Obs.span "inner" (fun () -> ())));
  let find name =
    List.find (fun r -> r.Flight.fr_name = name) (Flight.records ())
  in
  let inner = find "inner" and outer = find "outer" in
  Alcotest.(check string) "rid tagged" "rq-f" inner.Flight.fr_rid;
  Alcotest.(check string) "path shows nesting" "outer/inner"
    (List.assoc "path" inner.Flight.fr_data);
  Alcotest.(check bool) "outer path omitted when trivial" true
    (not (List.mem_assoc "path" outer.Flight.fr_data));
  Alcotest.(check bool) "durations non-negative" true
    (inner.Flight.fr_dur_ms >= 0. && outer.Flight.fr_dur_ms >= 0.);
  Alcotest.(check int) "no obs events recorded" 0
    (List.length (Obs.events ()))

(* Log events tee into the ring even without a log sink enabled. *)
let test_logs_feed_flight () =
  fresh ();
  Log.event "serve.request" [ ("rid", Log.S "rq-l"); ("n", Log.I 3) ];
  match
    List.filter (fun r -> r.Flight.fr_kind = Flight.Log) (Flight.records ())
  with
  | [ r ] ->
    Alcotest.(check string) "event name" "serve.request" r.Flight.fr_name;
    Alcotest.(check string) "rid lifted from fields" "rq-l" r.Flight.fr_rid;
    Alcotest.(check string) "fields stringified" "3"
      (List.assoc "n" r.Flight.fr_data)
  | rs ->
    Alcotest.fail (Printf.sprintf "expected 1 log record, got %d"
                     (List.length rs))

(* The dump as it reaches a file or the wire. *)
let dump_text () = Json.to_string (Flight.to_json ())

let parse_dump text =
  match Json.parse text with
  | Ok j -> j
  | Error e -> Alcotest.fail ("dump does not parse: " ^ e)

let dump_records j =
  match Json.member "records" j with
  | Some (Json.Arr rs) -> rs
  | _ -> Alcotest.fail "dump has no records array"

let test_dump_json_roundtrip () =
  fresh ();
  Flight.record ~rid:"rq-\"quoted\"\n" ~dur_ms:1.25
    ~data:[ ("edge", "tab\tand\\backslash") ]
    Flight.Span "weird";
  let j = parse_dump (dump_text ()) in
  Alcotest.(check (option string)) "schema" (Some "sepsat-flight-1")
    (Json.mem_str "schema" j);
  Alcotest.(check bool) "pid present" true (Json.mem_int "pid" j <> None);
  (match dump_records j with
  | [ r ] ->
    Alcotest.(check (option string)) "escaped rid survives"
      (Some "rq-\"quoted\"\n") (Json.mem_str "rid" r);
    Alcotest.(check (option string)) "escaped payload survives"
      (Some "tab\tand\\backslash")
      (Option.bind (Json.member "data" r) (Json.mem_str "edge"))
  | rs -> Alcotest.fail (Printf.sprintf "expected 1 record, got %d"
                           (List.length rs)))

let test_write_and_dump_files () =
  fresh ();
  let dir = Filename.temp_file "flight" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Flight.record ~rid:"rq-w" Flight.Event "written";
  let path = Filename.concat dir "out.json" in
  Flight.write path;
  let read_file p =
    let ic = open_in_bin p in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  Alcotest.(check bool) "written file parses" true
    (dump_records (parse_dump (read_file path)) <> []);
  Flight.set_dump_dir dir;
  let dumped = Flight.dump ~reason:"unit test/..x" () in
  Alcotest.(check bool) "dump lands in the dump dir" true
    (Filename.dirname dumped = dir);
  Alcotest.(check bool) "reason sanitized into the name" true
    (String.length (Filename.basename dumped) > 0
    && not (String.contains (Filename.basename dumped) '/')
    && not (String.contains (Filename.basename dumped) ' '));
  Alcotest.(check bool) "dump file parses" true
    (dump_records (parse_dump (read_file dumped)) <> []);
  let again = Flight.dump ~reason:"unit test/..x" () in
  Alcotest.(check bool) "sequence numbers keep dumps distinct" true
    (again <> dumped)

let test_signal_dump () =
  fresh ();
  let dir = Filename.temp_file "flightsig" ".d" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  Flight.set_dump_dir dir;
  Flight.record ~rid:"rq-sig" Flight.Event "before-signal";
  Flight.install_signal_dump ();
  Unix.kill (Unix.getpid ()) Sys.sigusr1;
  (* Signals are delivered at safe points; poll briefly for the file. *)
  let rec wait tries =
    let files = Sys.readdir dir in
    if Array.length files > 0 then files
    else if tries = 0 then files
    else begin
      Unix.sleepf 0.05;
      wait (tries - 1)
    end
  in
  let files = wait 100 in
  Alcotest.(check bool) "signal produced a dump" true
    (Array.length files > 0);
  let j =
    let ic = open_in_bin (Filename.concat dir files.(0)) in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        parse_dump (really_input_string ic (in_channel_length ic)))
  in
  Alcotest.(check bool) "dump holds the pre-signal record" true
    (List.exists
       (fun r -> Json.mem_str "name" r = Some "before-signal")
       (dump_records j))

(* -- Clock anchors and cross-process assembly ------------------------------ *)

let test_records_carry_mono () =
  fresh ();
  Flight.record ~rid:"rq-m" Flight.Event "stamp";
  (match Flight.records () with
  | [ r ] ->
    (* fr_ts and fr_mono come from one [Clock.pair] reading: the clamp
       only ever pushes mono forward, never behind the wall stamp *)
    Alcotest.(check bool) "mono present and >= wall" true
      (r.Flight.fr_mono >= r.Flight.fr_ts);
    Alcotest.(check bool) "mono close to wall" true
      (r.Flight.fr_mono -. r.Flight.fr_ts < 60.)
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected 1 record, got %d" (List.length rs)));
  let j = parse_dump (dump_text ()) in
  let wall = Json.mem_num "wall" j and mono = Json.mem_num "mono" j in
  Alcotest.(check bool) "dump header carries the wall/mono pair" true
    (wall <> None && mono <> None && Option.get mono >= Option.get wall);
  match dump_records j with
  | [ r ] ->
    Alcotest.(check bool) "record mono serialized" true
      (Json.mem_num "mono" r <> None)
  | _ -> Alcotest.fail "dump lost the record"

let mk_record ?(rid = "") ?(dur_ms = 0.) ~mono name =
  {
    Flight.fr_ts = 0.;
    (* deliberately bogus: assemble must use mono, not ts *)
    fr_mono = mono;
    fr_tid = 0;
    fr_rid = rid;
    fr_kind = (if dur_ms > 0. then Flight.Span else Flight.Event);
    fr_name = name;
    fr_dur_ms = dur_ms;
    fr_data = [];
  }

let assemble_events doc =
  match Json.parse doc with
  | Error e -> Alcotest.fail ("assembled trace does not parse: " ^ e)
  | Ok j -> (
    match Json.member "traceEvents" j with
    | Some (Json.Arr es) -> (j, es)
    | _ -> Alcotest.fail "no traceEvents array")

(* Two processes whose mono clocks have wildly different bases (one a
   boot-relative counter, one epoch-like) but whose dump anchors tie each
   to the wall timeline: assembly must align via anchor-relative mono
   offsets only, landing both records where their wall/mono pairs say
   they ended. *)
let test_assemble_aligns_skewed_clocks () =
  let a =
    {
      Flight.src_label = "router";
      src_pid = 100;
      src_wall = 1000.;
      src_mono = 500.;
      src_records = [ mk_record ~rid:"fl-1" ~dur_ms:10. ~mono:499.9 "hop.a" ];
    }
  in
  let b =
    {
      Flight.src_label = "backend-0";
      src_pid = 200;
      src_wall = 1000.05;
      src_mono = 9999.;
      (* ends 0.1 s before B's dump => abs 999.95, before A's record *)
      src_records = [ mk_record ~rid:"fl-1" ~dur_ms:20. ~mono:9998.9 "hop.b" ];
    }
  in
  let _, es = assemble_events (Flight.assemble [ a; b ]) in
  let lanes =
    List.filter_map
      (fun e ->
        if Json.mem_str "ph" e = Some "M" then
          Option.bind (Json.member "args" e) (Json.mem_str "name")
        else None)
      es
  in
  Alcotest.(check (list string)) "one lane per source, in order"
    [ "router"; "backend-0" ] lanes;
  let find name =
    List.find
      (fun e -> Json.mem_str "name" e = Some name)
      es
  in
  let ts e = Option.get (Json.mem_num "ts" e) in
  let dur e = Option.get (Json.mem_num "dur" e) in
  let ea = find "hop.a" and eb = find "hop.b" in
  Alcotest.(check string) "spans are X events" "X"
    (Option.get (Json.mem_str "ph" ea));
  (* absolute ends: a = 1000 - 0.1 = 999.9, b = 1000.05 - 0.1 = 999.95;
     starts: a = 999.89, b = 999.93; origin = min start = a's start *)
  Alcotest.(check (float 1.)) "a starts at the origin" 0. (ts ea);
  Alcotest.(check (float 1.)) "b starts 40ms later" 40_000. (ts eb);
  Alcotest.(check (float 1e-3)) "a duration in us" 10_000. (dur ea);
  Alcotest.(check (float 1e-3)) "b duration in us" 20_000. (dur eb);
  Alcotest.(check bool) "rid in args" true
    (Option.bind (Json.member "args" ea) (Json.mem_str "rid")
    = Some "fl-1")

let test_assemble_rid_filter () =
  let src =
    {
      Flight.src_label = "server";
      src_pid = 1;
      src_wall = 100.;
      src_mono = 100.;
      src_records =
        [
          mk_record ~rid:"fl-keep" ~dur_ms:1. ~mono:99.9 "keep.span";
          mk_record ~rid:"fl-drop" ~dur_ms:1. ~mono:99.9 "drop.span";
          mk_record ~rid:"fl-keep" ~mono:99.95 "keep.mark";
        ];
    }
  in
  let _, es = assemble_events (Flight.assemble ~rid:"fl-keep" [ src ]) in
  let names =
    List.filter_map
      (fun e ->
        if Json.mem_str "ph" e = Some "M" then None
        else Json.mem_str "name" e)
      es
  in
  Alcotest.(check (list string)) "only the rid's records survive"
    [ "keep.span"; "keep.mark" ] names;
  let mark =
    List.find (fun e -> Json.mem_str "name" e = Some "keep.mark") es
  in
  Alcotest.(check (option string)) "point records become instants"
    (Some "i") (Json.mem_str "ph" mark)

(* End-to-end through the real recorder: record under two rids, dump,
   re-decode the dump as a source (the [sufdec trace] path), assemble. *)
let test_assemble_from_live_dump () =
  fresh ();
  Flight.record ~rid:"fl-live" ~dur_ms:2. Flight.Span "serve.solve";
  Flight.record ~rid:"rq-other" ~dur_ms:1. Flight.Span "noise";
  let src = Flight.source_of_json ~label:"server" (parse_dump (dump_text ())) in
  let _, es = assemble_events (Flight.assemble ~rid:"fl-live" [ src ]) in
  let spans =
    List.filter (fun e -> Json.mem_str "ph" e = Some "X") es
  in
  Alcotest.(check int) "exactly the one request's span" 1
    (List.length spans);
  Alcotest.(check (option string)) "span name survives the round trip"
    (Some "serve.solve")
    (Json.mem_str "name" (List.hd spans))

(* The dump is lossless: decoding the printed document gives back every
   record and the header anchor pair exactly, floats included. A duration
   of 1/3 ms needs 17 significant digits; a fixed six-decimal format
   would lose most of them. *)
let test_dump_decode_exact () =
  fresh ();
  Flight.record ~rid:"rq-x" ~dur_ms:(1. /. 3.)
    ~data:[ ("k", "v"); ("empty", "") ]
    Flight.Span "exact.span";
  Flight.record Flight.Progress "exact.progress";
  Flight.record ~data:[ ("n", "1") ] Flight.Log "exact.log";
  Flight.record ~rid:"rq-y" Flight.Event "exact.event";
  let live = Flight.records () in
  let doc = parse_dump (dump_text ()) in
  let src = Flight.source_of_json ~label:"me" doc in
  Alcotest.(check bool) "every record decodes to an equal record" true
    (src.Flight.src_records = live);
  Alcotest.(check bool) "header wall exact" true
    (Json.mem_num "wall" doc = Some src.Flight.src_wall);
  Alcotest.(check bool) "header mono exact" true
    (Json.mem_num "mono" doc = Some src.Flight.src_mono);
  Alcotest.(check string) "label" "me" src.Flight.src_label;
  Alcotest.(check int) "pid" (Unix.getpid ()) src.Flight.src_pid

(* Dumps written before the wall/mono anchors existed carry only
   [dumped_at] and per-record [ts]: both anchors fall back to [dumped_at]
   and each record's mono to its own [ts]. *)
let test_decode_without_mono_pair () =
  let doc =
    parse_dump
      "{\"schema\":\"sepsat-flight-1\",\"pid\":7,\"dumped_at\":50.5,\
       \"records\":[{\"ts\":50.25,\"tid\":1,\"kind\":\"span\",\
       \"name\":\"old\",\"rid\":\"rq-old\",\"dur_ms\":3}]}"
  in
  let src = Flight.source_of_json ~label:"old" doc in
  Alcotest.(check (float 0.)) "wall from dumped_at" 50.5 src.Flight.src_wall;
  Alcotest.(check (float 0.)) "mono falls back to wall" 50.5
    src.Flight.src_mono;
  match src.Flight.src_records with
  | [ r ] ->
    Alcotest.(check (float 0.)) "record mono falls back to ts" 50.25
      r.Flight.fr_mono;
    Alcotest.(check bool) "kind decoded" true (r.Flight.fr_kind = Flight.Span);
    Alcotest.(check string) "rid" "rq-old" r.Flight.fr_rid;
    Alcotest.(check (float 0.)) "duration" 3. r.Flight.fr_dur_ms;
    Alcotest.(check (list (pair string string))) "no data" []
      r.Flight.fr_data
  | rs ->
    Alcotest.fail
      (Printf.sprintf "expected 1 record, got %d" (List.length rs))

(* -- Concurrency ----------------------------------------------------------- *)

(* Writers on several domains emit records whose rid, name and payload are
   all derived from one value; any record a concurrent reader sees must be
   internally consistent — the single-pointer-write discipline means a read
   can miss a record but never mix fields of two. *)
let prop_concurrent_no_torn_records =
  let gen = QCheck2.Gen.(pair (int_range 2 4) (int_range 50 200)) in
  QCheck2.Test.make ~name:"concurrent flight records never tear" ~count:20
    gen (fun (n_domains, n_records) ->
      fresh ~capacity:64 ();
      let consistent r =
        (* rid "w<d>-<i>", name "rec-<d>-<i>", data [("d", d); ("i", i)] *)
        match String.split_on_char '-' r.Flight.fr_name with
        | [ "rec"; d; i ] ->
          r.Flight.fr_rid = Printf.sprintf "w%s-%s" d i
          && List.assoc_opt "d" r.Flight.fr_data = Some d
          && List.assoc_opt "i" r.Flight.fr_data = Some i
          && r.Flight.fr_dur_ms = float_of_string i
        | _ -> false
      in
      let writers =
        List.init n_domains (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to n_records - 1 do
                  Flight.record
                    ~rid:(Printf.sprintf "w%d-%d" d i)
                    ~dur_ms:(float_of_int i)
                    ~data:
                      [ ("d", string_of_int d); ("i", string_of_int i) ]
                    Flight.Span
                    (Printf.sprintf "rec-%d-%d" d i)
                done))
      in
      (* Read (and render) while the writers run, then once after. *)
      let ok = ref true in
      for _ = 1 to 20 do
        ok := !ok && List.for_all consistent (Flight.records ());
        ok := !ok && (match Json.parse (dump_text ()) with
                     | Ok _ -> true
                     | Error _ -> false)
      done;
      List.iter Domain.join writers;
      !ok && List.for_all consistent (Flight.records ()))

(* The dump taken under load is valid JSON whose record objects all carry
   the schema's fields. *)
let prop_dump_under_load_valid =
  QCheck2.Test.make ~name:"dump under load is well-formed JSON" ~count:10
    QCheck2.Gen.(int_range 2 3)
    (fun n_domains ->
      fresh ~capacity:128 ();
      let stop = Atomic.make false in
      let writers =
        List.init n_domains (fun d ->
            Domain.spawn (fun () ->
                let i = ref 0 in
                while not (Atomic.get stop) do
                  incr i;
                  Flight.record
                    ~rid:(Printf.sprintf "w%d" d)
                    ~data:[ ("i", string_of_int !i) ]
                    Flight.Event "load"
                done))
      in
      let ok = ref true in
      for _ = 1 to 10 do
        match Json.parse (dump_text ()) with
        | Error _ -> ok := false
        | Ok j ->
          ok :=
            !ok
            && Json.mem_str "schema" j = Some "sepsat-flight-1"
            && (match Json.member "records" j with
               | Some (Json.Arr rs) ->
                 List.for_all
                   (fun r ->
                     Json.mem_str "name" r <> None
                     && Json.mem_num "ts" r <> None
                     && Json.mem_int "tid" r <> None
                     && Json.mem_str "kind" r <> None)
                   rs
               | _ -> false)
      done;
      Atomic.set stop true;
      List.iter Domain.join writers;
      !ok)

let () =
  Alcotest.run "flight"
    [
      ( "ring",
        [
          Alcotest.test_case "disabled mode records nothing" `Quick
            test_disabled_no_records;
          Alcotest.test_case "record fields and ambient rid" `Quick
            test_record_fields;
          Alcotest.test_case "overwrite keeps the newest N" `Quick
            test_ring_overwrite_keeps_newest;
        ] );
      ( "feeds",
        [
          Alcotest.test_case "obs spans tee in with obs off" `Quick
            test_spans_feed_flight;
          Alcotest.test_case "log events tee in without a sink" `Quick
            test_logs_feed_flight;
        ] );
      ( "dump",
        [
          Alcotest.test_case "json round-trip with hostile strings" `Quick
            test_dump_json_roundtrip;
          Alcotest.test_case "write and dump files" `Quick
            test_write_and_dump_files;
          Alcotest.test_case "SIGUSR1 dump" `Quick test_signal_dump;
        ] );
      ( "assemble",
        [
          Alcotest.test_case "records and dumps carry clock anchors" `Quick
            test_records_carry_mono;
          Alcotest.test_case "skewed mono clocks align via anchors" `Quick
            test_assemble_aligns_skewed_clocks;
          Alcotest.test_case "rid filter and instants" `Quick
            test_assemble_rid_filter;
          Alcotest.test_case "live dump decodes and assembles" `Quick
            test_assemble_from_live_dump;
          Alcotest.test_case "dump decodes back exactly" `Quick
            test_dump_decode_exact;
          Alcotest.test_case "dump without the mono pair decodes" `Quick
            test_decode_without_mono_pair;
        ] );
      ( "concurrency",
        [
          QCheck_alcotest.to_alcotest prop_concurrent_no_torn_records;
          QCheck_alcotest.to_alcotest prop_dump_under_load_valid;
        ] );
    ]
