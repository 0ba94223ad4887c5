(* The event store: off by default, one ring of records per domain.

   Hot-path discipline: every public recording function first loads one
   atomic ([enabled_]) and returns when unset — instrumented code pays a
   load and a branch, nothing else. When on, the recording domain owns its
   ring (reached through domain-local storage), so a record is a plain
   array store with no synchronization; only ring *registration* (once per
   domain per generation) takes the global mutex.

   Records are immutable blocks stored through a single pointer write into
   a [record option array], so a reader racing a writer sees either the old
   record or the new one, never a torn mix — this is what makes dumping a
   *live* server safe, and what test/test_flight.ml's qcheck battery
   checks. [count] may lag the array during a race; readers only use it to
   order the scan, so the worst case is a read missing the newest record. *)

type kind = Span | Log | Progress | Event

type record = {
  fr_ts : float;
  fr_mono : float;
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

let default_capacity = 65536

let enabled_ = Atomic.make false

let capacity_ = Atomic.make default_capacity

let generation = Atomic.make 0

let registry : ring list ref = ref []

let registry_mu = Mutex.create ()

let names : (int * string) list ref = ref []

let names_mu = Mutex.create ()

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

(* A reset bumps the generation; stale domain-local rings (already dropped
   from the registry) are replaced on next use. *)
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
  Mutex.protect names_mu (fun () -> names := []);
  Atomic.incr generation

(* -- Levels -------------------------------------------------------------- *)

type level = Quiet | Info | Debug

let rank = function Quiet -> 0 | Info -> 1 | Debug -> 2

let level_ = Atomic.make Quiet

let set_level l = Atomic.set level_ l

let get_level () = Atomic.get level_

let level_of_string = function
  | "quiet" -> Some Quiet
  | "info" -> Some Info
  | "debug" -> Some Debug
  | _ -> None

let log lvl fmt =
  if rank lvl <= rank (Atomic.get level_) && lvl <> Quiet then
    Printf.eprintf (fmt ^^ "\n%!")
  else Printf.ifprintf stderr (fmt ^^ "\n%!")

(* -- Recording ----------------------------------------------------------- *)

let push ~rid ~wall ~mono ~dur_ms ~data kind name =
  let r = ring () in
  r.data.(r.count mod Array.length r.data) <-
    Some
      {
        fr_ts = wall;
        fr_mono = mono;
        fr_tid = r.r_tid;
        fr_rid = rid;
        fr_kind = kind;
        fr_name = name;
        fr_dur_ms = dur_ms;
        fr_data = data;
      };
  r.count <- r.count + 1

let record ?rid ?(dur_ms = 0.) ?(data = []) kind name =
  if Atomic.get enabled_ then begin
    let rid = match rid with Some r -> r | None -> Trace_ctx.rid () in
    let wall, mono = Clock.pair () in
    push ~rid ~wall ~mono ~dur_ms ~data kind name
  end

let cat_data cat = if cat = "" then [] else [ ("cat", cat) ]

(* One implementation behind [span] and [timed]. The span path is read
   before the pop, so it includes [name]; a root span's trivial path is
   left out. The duration is a difference of two [Clock] readings, which
   the process-wide clamp keeps non-negative. *)
let timed ?(cat = "") name f =
  if not (Atomic.get enabled_) then begin
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Float.max 0. (Unix.gettimeofday () -. t0))
  end
  else begin
    let rid = Trace_ctx.rid () in
    Trace_ctx.push name;
    let t0 = Clock.mono_now () in
    let finish () =
      let wall, mono = Clock.pair () in
      let dur = mono -. t0 in
      let path = Trace_ctx.path_string () in
      let data =
        if path = "" || path = name then cat_data cat
        else ("path", path) :: cat_data cat
      in
      push ~rid ~wall ~mono ~dur_ms:(dur *. 1000.) ~data Span name;
      Trace_ctx.pop ();
      dur
    in
    match f () with
    | v -> (v, finish ())
    | exception e ->
      ignore (finish ());
      raise e
  end

let span ?cat name f =
  if not (Atomic.get enabled_) then f () else fst (timed ?cat name f)

let instant ?(cat = "") name =
  if Atomic.get enabled_ then record ~data:(cat_data cat) Event name

(* -- Thread naming ------------------------------------------------------- *)

(* Unconditional (no [enabled_] gate): lane names are consumed by the
   views and the engine's live lane table alike, and pools name their
   workers once per spawn — off the hot path. *)
let name_thread name =
  let tid = (Domain.self () :> int) in
  Mutex.protect names_mu (fun () ->
      names := (tid, name) :: List.remove_assoc tid !names)

let thread_names () =
  Mutex.protect names_mu (fun () -> List.sort compare !names)

(* -- Collection ---------------------------------------------------------- *)

(* Oldest slot first; every slot holds either None or a complete record. *)
let ring_records r =
  let cap = Array.length r.data in
  let count = r.count in
  let first = if count <= cap then 0 else count mod cap in
  List.init (min count cap) (fun i -> r.data.((first + i) mod cap))
  |> List.filter_map Fun.id

let records () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.concat_map ring_records rings
  |> List.stable_sort (fun a b ->
         match Float.compare a.fr_mono b.fr_mono with
         | 0 -> compare a.fr_tid b.fr_tid
         | c -> c)

let dropped () =
  let rings = Mutex.protect registry_mu (fun () -> !registry) in
  List.fold_left
    (fun acc r -> acc + max 0 (r.count - Array.length r.data))
    0 rings

(* -- Span rollup --------------------------------------------------------- *)

type span_stat = {
  ss_name : string;
  ss_count : int;
  ss_total : float;
  ss_max : float;
}

let span_summary recs =
  let tbl : (string, span_stat ref) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun r ->
      if r.fr_kind = Span then begin
        let name = r.fr_name and dur = r.fr_dur_ms /. 1000. in
        match Hashtbl.find_opt tbl name with
        | Some s ->
          s :=
            {
              !s with
              ss_count = !s.ss_count + 1;
              ss_total = !s.ss_total +. dur;
              ss_max = Float.max !s.ss_max dur;
            }
        | None ->
          Hashtbl.add tbl name
            (ref { ss_name = name; ss_count = 1; ss_total = dur; ss_max = dur })
      end)
    recs;
  Hashtbl.fold (fun _ s acc -> !s :: acc) tbl []
  |> List.sort (fun a b -> Float.compare b.ss_total a.ss_total)

let pp_summary ppf recs =
  let stats = span_summary recs in
  Format.fprintf ppf "%-24s %8s %12s %12s %12s@." "span" "count" "total(s)"
    "mean(s)" "max(s)";
  List.iter
    (fun s ->
      Format.fprintf ppf "%-24s %8d %12.4f %12.4f %12.4f@." s.ss_name
        s.ss_count s.ss_total
        (s.ss_total /. float_of_int (max 1 s.ss_count))
        s.ss_max)
    stats
