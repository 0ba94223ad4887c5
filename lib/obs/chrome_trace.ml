(* trace_event JSON writer. The format reference is the "Trace Event
   Format" document of the Chromium project; the subset here is B/E
   duration events, i instants, C counters and M metadata, which both
   chrome://tracing and Perfetto load. *)

module Json = Sepsat_util.Json

(* Every event carries its name, phase, pid 0 and its lane's tid; [fields]
   add the rest. Events are collected newest first and reversed once. *)
let emit o ~ph ~tid name fields =
  o :=
    Json.Obj
      (("name", Json.Str name) :: ("ph", Json.Str ph) :: ("pid", Json.Num 0.)
      :: ("tid", Json.Num (float_of_int tid)) :: fields)
    :: !o

let cat_field cat = ("cat", Json.Str (if cat = "" then "sepsat" else cat))

let ts_field ts = ("ts", Json.Num ts)

let args kvs = ("args", Json.Obj kvs)

(* The rid rides in [args] so Perfetto's query/filter UI can isolate one
   request's spans across every lane. *)
let rid_args rid = if rid = "" then [] else [ args [ ("rid", Json.Str rid) ] ]

(* Span begin/end replay for one tid. Spans are sorted so parents precede
   their children ([ts] ascending, duration descending breaks the tie);
   walking with a stack then closes every span that cannot contain the next
   one before opening it. Per-domain monotone capture in [Obs] makes real
   traces perfectly nested; for defensive completeness, a span that
   partially overlaps the stack top is clipped by closing the top first, so
   B/E events always stay matched and ordered. *)
let emit_spans o ~tid spans =
  let spans =
    List.stable_sort
      (fun (_, _, _, ts1, d1) (_, _, _, ts2, d2) ->
        match Float.compare ts1 ts2 with
        | 0 -> Float.compare d2 d1
        | c -> c)
      spans
  in
  let emit_b (name, cat, rid, ts, _) =
    emit o ~ph:"B" ~tid name (cat_field cat :: ts_field ts :: rid_args rid)
  in
  let emit_e ~at (name, _, _, _, _) =
    emit o ~ph:"E" ~tid name [ ts_field at ]
  in
  let ends (_, _, _, ts, d) = ts +. d in
  let contains p c = ends c <= ends p in
  let stack = ref [] in
  List.iter
    (fun ((_, _, _, ts, _) as s) ->
      (* Close every stacked span that cannot contain [s] before opening it,
         clamping close times to be non-decreasing. *)
      let rec close_until last =
        match !stack with
        | top :: rest when not (contains top s) ->
          (* Usually [ends top <= ts] (disjoint siblings); a partial overlap
             (impossible under monotone capture, possible after ring drops)
             is clipped at the new begin so timestamps never decrease. *)
          let at = Float.max last (Float.min (ends top) ts) in
          emit_e ~at top;
          stack := rest;
          close_until at
        | _ -> ()
      in
      close_until neg_infinity;
      emit_b s;
      stack := s :: !stack)
    spans;
  let rec drain last =
    match !stack with
    | [] -> ()
    | top :: rest ->
      let at = Float.max (ends top) last in
      emit_e ~at top;
      stack := rest;
      drain at
  in
  drain neg_infinity

let to_string evs =
  let o = ref [] in
  let t0 =
    List.fold_left (fun acc e -> Float.min acc (Obs.event_ts e)) infinity evs
  in
  let t0 = if Float.is_finite t0 then t0 else 0. in
  let us t = (t -. t0) *. 1e6 in
  let metadata name tid label =
    emit o ~ph:"M" ~tid name [ args [ ("name", Json.Str label) ] ]
  in
  metadata "process_name" 0 "sepsat";
  List.iter
    (fun (tid, name) -> metadata "thread_name" tid name)
    (Obs.thread_names ());
  (* Group spans per tid so each lane's B/E stream nests independently. *)
  let by_tid :
      (int, (string * string * string * float * float) list ref) Hashtbl.t =
    Hashtbl.create 8
  in
  List.iter
    (function
      | Obs.Span { name; cat; ts; dur; tid; rid } ->
        let r =
          match Hashtbl.find_opt by_tid tid with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add by_tid tid r;
            r
        in
        r := (name, cat, rid, us ts, dur *. 1e6) :: !r
      | Obs.Instant { name; cat; ts; tid; rid } ->
        emit o ~ph:"i" ~tid name
          (cat_field cat :: ("s", Json.Str "t") :: ts_field (us ts)
          :: rid_args rid)
      | Obs.Sample { name; ts; value; tid } ->
        emit o ~ph:"C" ~tid name
          [ ts_field (us ts); args [ ("value", Json.Num value) ] ])
    evs;
  let tids =
    Hashtbl.fold (fun tid _ acc -> tid :: acc) by_tid [] |> List.sort compare
  in
  List.iter
    (fun tid ->
      match Hashtbl.find_opt by_tid tid with
      | Some spans -> emit_spans o ~tid (List.rev !spans)
      | None -> ())
    tids;
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (List.rev !o));
         ("displayTimeUnit", Json.Str "ms");
       ])

let write_file path evs =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (to_string evs);
      output_char oc '\n')

let write_current path = write_file path (Obs.events ())
