(* Always-on flight recorder: a bounded ring of recent span completions,
   log lines and solver-progress snapshots per domain, kept even when full
   tracing is off, so a wedged or slow server can be debugged *after the
   fact* — dump on SIGUSR1, on crash, on deadline expiry, or via the
   serve protocol's [dump] op.

   Concurrency contract. Writers follow the Obs ring discipline: each
   domain owns its ring through DLS, so recording is a plain array store
   with no synchronization; only ring registration takes the global mutex.
   Records are immutable OCaml blocks stored through a single pointer
   write into an ['a option array], so a reader that races a writer sees
   either the old record or the new one, never a torn mix — this is what
   makes dumping a *live* server safe, and what test/test_flight.ml's
   qcheck battery checks. The [count] field may lag the data array during
   a race; readers only use it to bound how much they scan, so the worst
   case is a dump missing the very newest records. *)

type kind = Span | Log | Progress | Event

let kind_name = function
  | Span -> "span"
  | Log -> "log"
  | Progress -> "progress"
  | Event -> "event"

type record = {
  fr_ts : float;  (* completion wall-clock time *)
  fr_mono : float;  (* same instant on this process's Clock.mono_now *)
  fr_tid : int;
  fr_rid : string;  (* "" when outside any request *)
  fr_kind : kind;
  fr_name : string;
  fr_dur_ms : float;  (* 0 for point records *)
  fr_data : (string * string) list;
}

type ring = {
  r_tid : int;
  r_gen : int;
  data : record option array;
  mutable count : int;  (* total records; the ring holds the last [cap] *)
}

let default_capacity = 4096

let enabled_ = Atomic.make false

let capacity_ = Atomic.make default_capacity

let generation = Atomic.make 0

let registry : ring list ref = ref []

let registry_mu = Mutex.create ()

let enabled () = Atomic.get enabled_

let fresh_ring () =
  let r =
    {
      r_tid = (Domain.self () :> int);
      r_gen = Atomic.get generation;
      data = Array.make (max 16 (Atomic.get capacity_)) None;
      count = 0;
    }
  in
  Mutex.protect registry_mu (fun () -> registry := r :: !registry);
  r

let key = Domain.DLS.new_key fresh_ring

let ring () =
  let r = Domain.DLS.get key in
  if r.r_gen = Atomic.get generation then r
  else begin
    let r = fresh_ring () in
    Domain.DLS.set key r;
    r
  end

let enable ?(capacity = default_capacity) () =
  Atomic.set capacity_ capacity;
  Atomic.set enabled_ true

let disable () = Atomic.set enabled_ false

let reset () =
  Mutex.protect registry_mu (fun () -> registry := []);
  Atomic.incr generation

let record ?rid ?(dur_ms = 0.) ?(data = []) kind name =
  if Atomic.get enabled_ then begin
    let rid = match rid with Some r -> r | None -> Trace_ctx.rid () in
    let r = ring () in
    let wall, mono = Clock.pair () in
    let rec_ =
      {
        fr_ts = wall;
        fr_mono = mono;
        fr_tid = r.r_tid;
        fr_rid = rid;
        fr_kind = kind;
        fr_name = name;
        fr_dur_ms = dur_ms;
        fr_data = data;
      }
    in
    r.data.(r.count mod Array.length r.data) <- Some rec_;
    r.count <- r.count + 1
  end

(* -- Collection ----------------------------------------------------------- *)

let ring_records r =
  (* Scan the whole array rather than trusting [count]'s ordering: a live
     writer may be mid-overwrite, and every slot holds either None or a
     complete record. *)
  Array.to_list r.data |> List.filter_map Fun.id

let records () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.concat_map ring_records rings
  |> List.stable_sort (fun a b ->
         match Float.compare a.fr_ts b.fr_ts with
         | 0 -> compare a.fr_tid b.fr_tid
         | c -> c)

let dropped () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.fold_left
    (fun acc r -> acc + max 0 (r.count - Array.length r.data))
    0 rings

(* -- JSON dump ------------------------------------------------------------ *)

module Json = Sepsat_util.Json

let kind_of_name = function
  | "span" -> Span
  | "log" -> Log
  | "progress" -> Progress
  | _ -> Event

let num_int i = Json.Num (float_of_int i)

(* Empty rid, zero duration and empty data are left out; [source_of_json]
   restores exactly those defaults. *)
let record_json r =
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
  let recs = records () in
  (* The (wall, mono) pair is sampled together so a consumer can map any
     record's mono stamp onto the wall timeline without assuming the two
     processes' wall clocks agree — see [assemble]. *)
  let wall, mono = Clock.pair () in
  Json.Obj
    [
      ("schema", Json.Str "sepsat-flight-1");
      ("pid", num_int (Unix.getpid ()));
      ("dumped_at", Json.Num wall);
      ("wall", Json.Num wall);
      ("mono", Json.Num mono);
      ("dropped", num_int (dropped ()));
      ("records", Json.Arr (List.map record_json recs));
    ]

let write path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () ->
      output_string oc (Json.to_string (to_json ()));
      output_char oc '\n')

(* -- Cross-process assembly ----------------------------------------------- *)

type source = {
  src_label : string;
  src_pid : int;
  src_wall : float;
  src_mono : float;
  src_records : record list;
}

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
          fr_ts = ts;
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
    src_records =
      (match Json.member "records" j with
      | Some (Json.Arr rs) -> List.filter_map record rs
      | _ -> []);
  }

(* One Chrome trace from many processes' flight dumps. Each source's
   (wall, mono) header pair pins its mono timeline to the shared wall
   timeline; a record's absolute end time is then

     src_wall -. (src_mono -. fr_mono)

   which only ever subtracts mono readings from the *same* process —
   immune to wall-clock skew between router and shards. Spans become
   "X" (complete) events ending at that instant; point records become
   thread-scoped instants. One Chrome pid per source, named via
   process_name metadata, gives the lane-per-process view. *)
let assemble ?rid sources =
  let keep r = match rid with None -> true | Some id -> r.fr_rid = id in
  let abs_end src r = src.src_wall -. (src.src_mono -. r.fr_mono) in
  let origin =
    List.fold_left
      (fun acc src ->
        List.fold_left
          (fun acc r ->
            if keep r then Float.min acc (abs_end src r -. (r.fr_dur_ms /. 1e3))
            else acc)
          acc src.src_records)
      Float.infinity sources
  in
  let origin = if origin = Float.infinity then 0. else origin in
  let lanes =
    List.mapi
      (fun pid src ->
        Json.Obj
          [
            ("name", Json.Str "process_name");
            ("ph", Json.Str "M");
            ("pid", num_int pid);
            ("tid", Json.Num 0.);
            ("args", Json.Obj [ ("name", Json.Str src.src_label) ]);
          ])
      sources
  in
  (* Flatten, tag with the source lane, and sort by start time so the
     event stream reads in causal order. *)
  let events =
    List.concat
      (List.mapi
         (fun pid src ->
           List.filter_map
             (fun r ->
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
  let event (start_us, pid, r) =
    let phase =
      if r.fr_dur_ms > 0. then
        [ ("ph", Json.Str "X"); ("dur", Json.Num (r.fr_dur_ms *. 1e3)) ]
      else [ ("ph", Json.Str "i"); ("s", Json.Str "t") ]
    in
    Json.Obj
      ([
         ("name", Json.Str r.fr_name);
         ("cat", Json.Str (kind_name r.fr_kind));
         ("pid", num_int pid);
         ("tid", num_int r.fr_tid);
         ("ts", Json.Num start_us);
       ]
      @ phase
      @ [
          ( "args",
            Json.Obj
              (("rid", Json.Str r.fr_rid)
              :: List.map (fun (k, v) -> ("data." ^ k, Json.Str v)) r.fr_data)
          );
        ])
  in
  Json.to_string
    (Json.Obj
       [
         ("traceEvents", Json.Arr (lanes @ List.map event events));
         ("displayTimeUnit", Json.Str "ms");
       ])

(* -- Dump management ------------------------------------------------------ *)

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
