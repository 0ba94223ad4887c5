(* Persistent digest-keyed verdict cache: an append-only JSON-lines log
   with an in-memory index.

   The router owns one of these per fleet. Every decisive verdict that
   flows back through the router is appended as one line

     {"key":"<digest>|<method>","verdict":"valid","witness":null,
      "solve_ms":12.5}

   and indexed; a later request for the same key is answered from the
   index without touching a backend — across router restarts, because the
   log is re-read on open. The same entries warm each backend's in-memory
   LRU when the supervisor (re)starts it, routed by ring affinity.

   Crash safety is the append-only kind: an entry is one [output_string]
   of one line followed by a flush, the only mutation is appending, and
   the loader ignores any line that does not parse — a torn final line
   from a crash mid-append costs exactly that entry. There is exactly one
   writer (the router's single thread), so no locking and no interleaved
   lines. [put] is last-write-wins on reload but skips keys already
   indexed, so re-serving a cached verdict never grows the log. *)

module Json = Sepsat_util.Json
module Protocol = Sepsat_serve.Protocol

type entry = {
  d_verdict : Protocol.verdict;  (* decisive only; never [Unknown] *)
  d_witness : string option;
  d_solve_ms : float;
}

type t = {
  path : string;
  index : (string, entry) Hashtbl.t;
  mutable oc : out_channel option;  (* opened lazily on first append *)
  mutable loaded : int;  (* entries recovered from disk at open *)
  mutable appended : int;
  hits : int Atomic.t;
  misses : int Atomic.t;
}

let entry_to_line key e =
  Json.to_string
    (Obj
       [
         ("key", Str key);
         ("verdict", Str (Protocol.verdict_to_string e.d_verdict));
         ( "witness",
           match e.d_witness with Some w -> Json.Str w | None -> Json.Null );
         ("solve_ms", Num e.d_solve_ms);
       ])

let entry_of_line line =
  match Json.parse line with
  | Error _ -> None
  | Ok j -> (
    match (Json.mem_str "key" j, Json.mem_str "verdict" j) with
    | Some key, Some v -> (
      let verdict =
        match v with
        | "valid" -> Some Protocol.Valid
        | "invalid" -> Some Protocol.Invalid
        | _ -> None  (* unknown / garbage: not a decisive entry *)
      in
      match verdict with
      | None -> None
      | Some d_verdict ->
        Some
          ( key,
            {
              d_verdict;
              d_witness = Json.mem_str "witness" j;
              d_solve_ms =
                Option.value (Json.mem_num "solve_ms" j) ~default:0.;
            } ))
    | _ -> None)

let load t =
  match open_in_bin t.path with
  | exception Sys_error _ -> ()
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        try
          while true do
            match entry_of_line (input_line ic) with
            | Some (key, e) ->
              (* Last write wins, mirroring append order. *)
              if not (Hashtbl.mem t.index key) then t.loaded <- t.loaded + 1;
              Hashtbl.replace t.index key e
            | None -> ()  (* torn or foreign line: skip, keep loading *)
          done
        with End_of_file -> ())

let open_ ~path =
  let t =
    {
      path;
      index = Hashtbl.create 256;
      oc = None;
      loaded = 0;
      appended = 0;
      hits = Atomic.make 0;
      misses = Atomic.make 0;
    }
  in
  load t;
  t

let find t key =
  match Hashtbl.find_opt t.index key with
  | Some e ->
    Atomic.incr t.hits;
    Some e
  | None ->
    Atomic.incr t.misses;
    None

(* If a crash tore the final line mid-append, the log ends without a
   newline; appending straight after would glue the next record onto the
   torn fragment and lose it too. Start the writer on a fresh line. *)
let ends_with_open_line path =
  match open_in_bin path with
  | exception Sys_error _ -> false
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let len = in_channel_length ic in
        len > 0
        && begin
             seek_in ic (len - 1);
             input_char ic <> '\n'
           end)

let out_channel t =
  match t.oc with
  | Some oc -> oc
  | None ->
    let torn = ends_with_open_line t.path in
    let oc =
      open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 t.path
    in
    if torn then output_char oc '\n';
    t.oc <- Some oc;
    oc

let put t key e =
  if not (Hashtbl.mem t.index key) then begin
    Hashtbl.replace t.index key e;
    let oc = out_channel t in
    output_string oc (entry_to_line key e);
    output_char oc '\n';
    flush oc;
    t.appended <- t.appended + 1
  end

let iter t f = Hashtbl.iter f t.index

let size t = Hashtbl.length t.index

type stats = {
  s_size : int;
  s_loaded : int;
  s_appended : int;
  s_hits : int;
  s_misses : int;
}

let stats t =
  {
    s_size = Hashtbl.length t.index;
    s_loaded = t.loaded;
    s_appended = t.appended;
    s_hits = Atomic.get t.hits;
    s_misses = Atomic.get t.misses;
  }

let sync t =
  match t.oc with
  | None -> ()
  | Some oc -> (
    flush oc;
    try Unix.fsync (Unix.descr_of_out_channel oc)
    with Unix.Unix_error _ -> ())

let close t =
  sync t;
  (match t.oc with None -> () | Some oc -> close_out_noerr oc);
  t.oc <- None
