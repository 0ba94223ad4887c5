(* Views over the Obs store that leave the process: the flight dump (on
   SIGUSR1, on crash, on deadline expiry, or via the serve protocol's
   [dump] op), its decoder, and the Chrome trace assembler that renders
   both this process's store ([--trace FILE]) and many processes' dumps
   ([sufdec trace]). Reading the store while writers record is safe by
   Obs's single-pointer-write discipline. *)

module Json = Sepsat_util.Json

let kind_name = function
  | Obs.Span -> "span"
  | Obs.Log -> "log"
  | Obs.Progress -> "progress"
  | Obs.Event -> "event"

let kind_of_name = function
  | "span" -> Obs.Span
  | "log" -> Obs.Log
  | "progress" -> Obs.Progress
  | _ -> Obs.Event

type source = {
  src_label : string;
  src_pid : int;
  src_wall : float;
  src_mono : float;
  src_threads : (int * string) list;
  src_records : Obs.record list;
}

let local () =
  let recs = Obs.records () in
  (* The (wall, mono) pair is sampled together, after the records, so a
     consumer can map any record's mono stamp onto the wall timeline
     without assuming two processes' wall clocks agree — see [assemble]. *)
  let wall, mono = Clock.pair () in
  {
    src_label = "sepsat";
    src_pid = Unix.getpid ();
    src_wall = wall;
    src_mono = mono;
    src_threads = Obs.thread_names ();
    src_records = recs;
  }

(* -- JSON dump ------------------------------------------------------------ *)

let num_int i = Json.Num (float_of_int i)

(* Empty rid, zero duration and empty data are left out; [source_of_json]
   restores exactly those defaults. *)
let record_json (r : Obs.record) =
  let opt cond kv = if cond then [ kv ] else [] in
  Json.Obj
    ([
       ("ts", Json.Num r.fr_ts);
       ("mono", Json.Num r.fr_mono);
       ("tid", num_int r.fr_tid);
       ("kind", Json.Str (kind_name r.fr_kind));
       ("name", Json.Str r.fr_name);
     ]
    @ opt (r.fr_rid <> "") ("rid", Json.Str r.fr_rid)
    @ opt (r.fr_dur_ms <> 0.) ("dur_ms", Json.Num r.fr_dur_ms)
    @ opt (r.fr_data <> [])
        ("data", Json.Obj (List.map (fun (k, v) -> (k, Json.Str v)) r.fr_data)))

let to_json () =
  let s = local () in
  Json.Obj
    [
      ("schema", Json.Str "sepsat-flight-1");
      ("pid", num_int s.src_pid);
      ("dumped_at", Json.Num s.src_wall);
      ("wall", Json.Num s.src_wall);
      ("mono", Json.Num s.src_mono);
      ("dropped", num_int (Obs.dropped ()));
      ("records", Json.Arr (List.map record_json s.src_records));
    ]

let write_text path text =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc text;
      output_char oc '\n')

let write path = write_text path (Json.to_string (to_json ()))

(* Dumps predating the wall/mono header pair (or the per-record mono
   stamp) fall back to raw wall time, per the documented compat rule. *)
let source_of_json ~label j =
  let num k o = Json.mem_num k o in
  let wall =
    match num "wall" j with
    | Some w -> w
    | None -> Option.value ~default:0. (num "dumped_at" j)
  in
  let record = function
    | Json.Obj _ as r ->
      let ts = Option.value ~default:0. (num "ts" r) in
      Some
        {
          Obs.fr_ts = ts;
          fr_mono = Option.value ~default:ts (num "mono" r);
          fr_tid = Option.value ~default:0 (Json.mem_int "tid" r);
          fr_rid = Option.value ~default:"" (Json.mem_str "rid" r);
          fr_kind =
            kind_of_name (Option.value ~default:"" (Json.mem_str "kind" r));
          fr_name = Option.value ~default:"" (Json.mem_str "name" r);
          fr_dur_ms = Option.value ~default:0. (num "dur_ms" r);
          fr_data =
            (match Json.member "data" r with
            | Some (Json.Obj kvs) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun s -> (k, s)) (Json.to_str v))
                kvs
            | _ -> []);
        }
    | _ -> None
  in
  {
    src_label = label;
    src_pid = Option.value ~default:0 (Json.mem_int "pid" j);
    src_wall = wall;
    src_mono = Option.value ~default:wall (num "mono" j);
    src_threads = [];
    src_records =
      (match Json.member "records" j with
      | Some (Json.Arr rs) -> List.filter_map record rs
      | _ -> []);
  }

(* -- Chrome trace assembly ------------------------------------------------ *)

(* The counter points of a progress record: every integer-valued field [k]
   of a record named [ns.*] feeds track [ns.k]. *)
let counters (r : Obs.record) =
  let ns =
    match String.index_opt r.fr_name '.' with
    | Some i -> String.sub r.fr_name 0 i
    | None -> r.fr_name
  in
  List.filter_map
    (fun (k, v) ->
      Option.map (fun n -> (ns ^ "." ^ k, n)) (int_of_string_opt v))
    r.fr_data

(* One Chrome trace from many sources. Each source's (wall, mono) header
   pair pins its mono timeline to the shared wall timeline; a record's
   absolute end time is then

     src_wall -. (src_mono -. fr_mono)

   which only ever subtracts mono readings from the *same* process —
   immune to wall-clock skew between router and shards. Spans become "X"
   (complete) events ending at that instant; progress records become "C"
   counter points and the other point records thread-scoped instants. One
   Chrome pid per source, named via process_name metadata, gives the
   lane-per-process view; thread_name metadata names its domains. *)
let assemble ?rid sources =
  let keep (r : Obs.record) =
    match rid with None -> true | Some id -> r.fr_rid = id
  in
  let abs_end src (r : Obs.record) =
    src.src_wall -. (src.src_mono -. r.fr_mono)
  in
  let origin =
    List.fold_left
      (fun acc src ->
        List.fold_left
          (fun acc (r : Obs.record) ->
            if keep r then Float.min acc (abs_end src r -. (r.fr_dur_ms /. 1e3))
            else acc)
          acc src.src_records)
      Float.infinity sources
  in
  let origin = if origin = Float.infinity then 0. else origin in
  let meta name pid tid label =
    Json.Obj
      [
        ("name", Json.Str name);
        ("ph", Json.Str "M");
        ("pid", num_int pid);
        ("tid", num_int tid);
        ("args", Json.Obj [ ("name", Json.Str label) ]);
      ]
  in
  let lanes =
    List.concat
      (List.mapi
         (fun pid src ->
           meta "process_name" pid 0 src.src_label
           :: List.map
                (fun (tid, n) -> meta "thread_name" pid tid n)
                src.src_threads)
         sources)
  in
  (* Flatten, tag with the source lane, and sort by start time so the
     event stream reads in causal order. *)
  let events =
    List.concat
      (List.mapi
         (fun pid src ->
           List.filter_map
             (fun (r : Obs.record) ->
               if keep r then
                 let start_us =
                   (abs_end src r -. origin) *. 1e6 -. (r.fr_dur_ms *. 1e3)
                 in
                 Some (Float.max 0. start_us, pid, r)
               else None)
             src.src_records)
         sources)
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> Float.compare a b)
  in
  let event (start_us, pid, (r : Obs.record)) =
    let head name ph =
      [
        ("name", Json.Str name);
        ("ph", Json.Str ph);
        ("pid", num_int pid);
        ("tid", num_int r.fr_tid);
        ("ts", Json.Num start_us);
      ]
    in
    match r.fr_kind with
    | Obs.Progress ->
      List.map
        (fun (track, n) ->
          Json.Obj
            (head track "C"
            @ [ ("args", Json.Obj [ ("value", num_int n) ]) ]))
        (counters r)
    | Obs.Span | Obs.Log | Obs.Event ->
      let phase =
        if r.fr_kind = Obs.Span then
          head r.fr_name "X" @ [ ("dur", Json.Num (r.fr_dur_ms *. 1e3)) ]
        else head r.fr_name "i" @ [ ("s", Json.Str "t") ]
      in
      let cat =
        Option.value ~default:(kind_name r.fr_kind)
          (List.assoc_opt "cat" r.fr_data)
      in
      [
        Json.Obj
          (phase
          @ [
              ("cat", Json.Str cat);
              ( "args",
                Json.Obj
                  (("rid", Json.Str r.fr_rid)
                  :: List.map
                       (fun (k, v) -> ("data." ^ k, Json.Str v))
                       r.fr_data) );
            ]);
      ]
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (lanes @ List.concat_map event events));
         ("displayTimeUnit", Json.Str "ms");
       ])

let write_trace path = write_text path (assemble [ local () ])

(* -- Dump triggers -------------------------------------------------------- *)

let dump_dir = Atomic.make "."

let dump_seq = Atomic.make 0

let set_dump_dir d = Atomic.set dump_dir d

let sanitize_reason s =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' -> c
      | _ -> '_')
    s

let dump ~reason () =
  let path =
    Filename.concat (Atomic.get dump_dir)
      (Printf.sprintf "flight-%d-%d-%s.json" (Unix.getpid ())
         (1 + Atomic.fetch_and_add dump_seq 1)
         (sanitize_reason reason))
  in
  write path;
  path

let install_signal_dump ?(signal = Sys.sigusr1) () =
  Sys.set_signal signal
    (Sys.Signal_handle
       (fun _ ->
         (* Signal handlers run on the main domain at a safe point; dumping
            takes only the registry mutex briefly and writes a fresh file,
            so it cannot deadlock request processing. *)
         try ignore (dump ~reason:"signal" ()) with _ -> ()))

let install_crash_dump () =
  Printexc.set_uncaught_exception_handler (fun exn bt ->
      (try
         let path = dump ~reason:"crash" () in
         Printf.eprintf "flight recorder dumped to %s\n%!" path
       with _ -> ());
      Printf.eprintf "Fatal error: exception %s\n%s%!" (Printexc.to_string exn)
        (Printexc.raw_backtrace_to_string bt))
