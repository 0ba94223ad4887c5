(* Summary statistics, the result line, and the in-memory span store. *)

module Json = Sepsat_serve.Json

let now = Unix.gettimeofday

(* Linear interpolation between closest ranks. *)
let quantile q samples =
  match List.sort compare samples with
  | [] -> 0.
  | sorted ->
    let a = Array.of_list sorted in
    let pos = q *. float_of_int (Array.length a - 1) in
    let lo = truncate pos in
    let hi = min (lo + 1) (Array.length a - 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median = quantile 0.5

let geomean = function
  | [] -> 0.
  | xs ->
    exp
      (List.fold_left (fun acc x -> acc +. log x) 0. xs
      /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

let ratio a b = if b > 0. then a /. b else 0.

(* Peak resident set of a live process, from /proc/<pid>/status. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%s/status" pid) in
  let rec scan () =
    match input_line ic with
    | exception End_of_file -> 0.
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
        (fun kb -> float_of_int kb /. 1024.)
    | _ -> scan ()
  in
  Fun.protect ~finally:(fun () -> close_in ic) scan

(* Host speed. The benchmark was built on a 2-core VM of a shared host
   whose speed drifts over minutes: in one set of ten runs of the same code,
   the last ran up to 58% slower than the first. A probe of fixed work, OCaml
   stdlib allocation and pointer chasing like the program's own but none of
   the program's code, runs many times through each run; every reported
   time is scaled by [reference_s] over the probe's fastest time in the run,
   so it reads as time on the host at the probe's reference speed. A change
   to the program moves scaled and raw times alike; a change of host speed
   moves the scaled ones much less. Raw times go to standard error. *)
module Host = struct
  module M = Map.Make (Int)

  let samples = ref []

  (* The probe's fastest time on that VM in a quiet period. *)
  let reference_s = 0.025

  (* The probe runs under the runtime's default GC settings whatever the
     program sets, from a collected heap, so neither the program's settings
     nor the garbage of whatever ran before are charged to it. *)
  let probe () =
    let saved = Gc.get () in
    Gc.set { saved with Gc.minor_heap_size = 262_144; space_overhead = 120 };
    Gc.full_major ();
    let t0 = now () in
    let m = ref M.empty in
    for i = 0 to 60_000 do
      m := M.add ((i * 7919) land 0xfffff) i !m
    done;
    let total = M.fold (fun _ v acc -> acc + v) !m 0 in
    ignore (Sys.opaque_identity (List.rev (List.init 100_000 (( + ) total))));
    samples := (now () -. t0) :: !samples;
    Gc.set saved

  let fastest () = List.fold_left min infinity !samples

  (* Multiplies a raw time into reference-speed time. *)
  let scale () =
    let f = reference_s /. fastest () in
    Printf.eprintf "host probe: %d samples, fastest %.5f s, median %.5f s, \
                    scale %.4f\n"
      (List.length !samples) (fastest ()) (median !samples) f;
    f
end

(* One run's outcome: operations attempted and failed, whether every output
   checked, and the metrics. [fail] records why an operation failed. *)
type tally = {
  mutable attempted : int;
  mutable failed : int;
  mutable correct : bool;
  mutable failures : (string * string) list;
}

let tally () = { attempted = 0; failed = 0; correct = true; failures = [] }

let fail ?(wrong = false) t name why =
  t.failed <- t.failed + 1;
  if wrong then t.correct <- false;
  if not (List.mem_assoc name t.failures) then
    t.failures <- (name, why) :: t.failures

let merge into t =
  into.attempted <- into.attempted + t.attempted;
  into.failed <- into.failed + t.failed;
  into.correct <- into.correct && t.correct;
  into.failures <- t.failures @ into.failures

(* A run's end-to-end metrics: [times] are scaled to reference host speed
   (their raw values go to standard error), [others] are reported as they
   are. *)
let raw_and_scaled tally times others =
  let f = Host.scale () in
  List.iter
    (fun (name, unit, v) -> Printf.eprintf "raw %s: %.6g %s\n" name v unit)
    times;
  (tally, List.map (fun (n, u, v) -> (n, u, v *. f)) times @ others)

(* The last line of standard output. *)
let print_result t metrics =
  List.iter
    (fun (name, why) -> Printf.eprintf "failed: %s: %s\n" name why)
    (List.rev t.failures);
  let metric (name, unit, v) =
    (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ])
  in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool t.correct);
            ("attempted", Json.Num (float_of_int t.attempted));
            ("failed", Json.Num (float_of_int t.failed));
            ("metrics", Json.Obj (List.map metric metrics));
          ]))

(* Spans of the traced run: kept in memory, written out when the run ends.
   [op] is shared by the spans of one operation (one formula or one
   request); [parent] is the id of the enclosing span, 0 at the root. *)
module Spans = struct
  type span = {
    id : int;
    name : string;
    op : int;
    parent : int;
    t0 : float;
    t1 : float;
  }

  let mu = Mutex.create ()
  let store : span list ref = ref []
  let next = ref 0

  let add ~op ~parent name t0 t1 =
    Mutex.protect mu (fun () ->
        incr next;
        store := { id = !next; name; op; parent; t0; t1 } :: !store;
        !next)

  (* Runs [f] inside a span, which closes even when [f] raises; [f]
     receives the span's own id so it can parent children under it. *)
  let with_ ~op ~parent name f =
    let id = Mutex.protect mu (fun () -> incr next; !next) in
    let t0 = now () in
    let close () =
      let t1 = now () in
      Mutex.protect mu (fun () ->
          store := { id; name; op; parent; t0; t1 } :: !store)
    in
    Fun.protect ~finally:close (fun () -> f id)

  let dur s = s.t1 -. s.t0

  (* Total seconds over every span of one name. *)
  let total name =
    List.fold_left
      (fun acc s -> if s.name = name then acc +. dur s else acc)
      0. !store

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        output_string oc
          (Json.to_string
             (Json.Obj
                [
                  ("id", Json.Num (float_of_int s.id));
                  ("name", Json.Str s.name);
                  ("op", Json.Num (float_of_int s.op));
                  ("parent", Json.Num (float_of_int s.parent));
                  ("start", Json.Num s.t0);
                  ("end", Json.Num s.t1);
                ]));
        output_char oc '\n')
      (List.rev !store);
    close_out oc
end
