type counter = int Atomic.t

type gauge = float Atomic.t

(* No separate observation counter: the count is derived as the sum of the
   bins at read time. [reset] zeroes the fields one atomic at a time, so a
   counter read independently of the bins could tear — report a non-zero
   count against already-zeroed buckets. Deriving the count makes
   "count > 0 with all-zero buckets" impossible by construction; the only
   remaining reset race is benign (a concurrent [observe]'s bin increment
   and sum addition may land on opposite sides of the reset, skewing [sum]
   by at most that one in-flight observation). *)
(* An exemplar is the concrete observation an operator chases: "bucket
   (0.64, 2.56] has 31 requests" becomes "…and the slowest was rq-1042 at
   1.93s". One slot per bin holds the max-valued observation that carried a
   rid since the last reset, maintained by CAS on an immutable record so
   readers never see a torn exemplar. *)
type exemplar = { ex_rid : string; ex_value : float; ex_ts : float }

type histogram = {
  bounds : float array;  (* upper bounds; the +inf bin is bounds-length *)
  bins : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  sum : float Atomic.t;
  exes : exemplar option Atomic.t array;  (* length = Array.length bins *)
}

type metric = C of counter | G of gauge | H of histogram

let table : (string, metric) Hashtbl.t = Hashtbl.create 64

let mu = Mutex.create ()

let kind_name = function C _ -> "counter" | G _ -> "gauge" | H _ -> "histogram"

let register name make match_ =
  Mutex.protect mu (fun () ->
      match Hashtbl.find_opt table name with
      | Some m -> (
        match match_ m with
        | Some v -> v
        | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already a %s" name (kind_name m)))
      | None ->
        let v = make () in
        (match match_ v with
        | Some _ -> ()
        | None -> assert false);
        Hashtbl.add table name v;
        (match match_ v with Some x -> x | None -> assert false))

let handle register name =
  let cell = Atomic.make None in
  fun () ->
    match Atomic.get cell with
    | Some h -> h
    | None ->
      let h = register name in
      Atomic.set cell (Some h);
      h

let counter name =
  register name
    (fun () -> C (Atomic.make 0))
    (function C c -> Some c | G _ | H _ -> None)

let gauge name =
  register name
    (fun () -> G (Atomic.make 0.))
    (function G g -> Some g | C _ | H _ -> None)

(* Base-4 ladder from 1µs to ~4ks: wide enough for phase durations without
   per-instance configuration. *)
let default_buckets =
  Array.init 16 (fun i -> 1e-6 *. (4. ** float_of_int i))

let histogram ?(buckets = default_buckets) name =
  register name
    (fun () ->
      H
        {
          bounds = Array.copy buckets;
          bins = Array.init (Array.length buckets + 1) (fun _ -> Atomic.make 0);
          sum = Atomic.make 0.;
          exes =
            Array.init (Array.length buckets + 1) (fun _ -> Atomic.make None);
        })
    (function H h -> Some h | C _ | G _ -> None)

let rec atomic_add_float cell x =
  let old = Atomic.get cell in
  if not (Atomic.compare_and_set cell old (old +. x)) then
    atomic_add_float cell x

(* Updates are gated on the store's switch so the pipeline's hot paths
   pay one load and a branch when it is off. A long-lived server turns the
   store on at startup, so its operational counters move in a default run. *)
let incr c = if Obs.enabled () then ignore (Atomic.fetch_and_add c 1)

let add c k = if Obs.enabled () then ignore (Atomic.fetch_and_add c k)

let set g v = if Obs.enabled () then Atomic.set g v

let observe ?rid h v =
  if Obs.enabled () then begin
    let i = ref 0 in
    let nb = Array.length h.bounds in
    while !i < nb && v > h.bounds.(!i) do
      i := !i + 1
    done;
    ignore (Atomic.fetch_and_add h.bins.(!i) 1);
    atomic_add_float h.sum v;
    match rid with
    | None -> ()
    | Some rid ->
      let cell = h.exes.(!i) in
      let rec keep_max () =
        let cur = Atomic.get cell in
        let better =
          match cur with None -> true | Some e -> v > e.ex_value
        in
        if
          better
          && not
               (Atomic.compare_and_set cell cur
                  (Some { ex_rid = rid; ex_value = v; ex_ts = Unix.gettimeofday () }))
        then keep_max ()
      in
      keep_max ()
  end

(* Per-bucket exemplars of a live histogram handle: (upper bound, exemplar)
   for every bin that has one, +inf bin last. *)
let exemplars h =
  List.init (Array.length h.exes) (fun i ->
      match Atomic.get h.exes.(i) with
      | None -> None
      | Some e ->
        Some ((if i < Array.length h.bounds then h.bounds.(i) else infinity), e))
  |> List.filter_map Fun.id

let get c = Atomic.get c

(* -- Reporting ------------------------------------------------------------ *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      buckets : (float * int) list;
      exemplars : (float * exemplar) list;
    }

let read = function
  | C c -> Counter (Atomic.get c)
  | G g -> Gauge (Atomic.get g)
  | H h ->
    let buckets =
      List.init
        (Array.length h.bins)
        (fun i ->
          ( (if i < Array.length h.bounds then h.bounds.(i) else infinity),
            Atomic.get h.bins.(i) ))
    in
    (* Derived, not stored: count always equals the bucket total, even when
       this read races a [reset]. *)
    let count = List.fold_left (fun acc (_, n) -> acc + n) 0 buckets in
    Histogram { count; sum = Atomic.get h.sum; buckets; exemplars = exemplars h }

let snapshot () =
  Mutex.protect mu (fun () ->
      Hashtbl.fold (fun name m acc -> (name, read m) :: acc) table [])
  |> List.sort compare

(* Strict JSON: non-finite values print as null (see [Json.to_string]),
   and the histogram's +inf bucket is simply omitted — it is implicit,
   [count - sum(finite bins)] — the same convention Prometheus uses with
   its mandatory `_count` series. *)
let to_json () =
  let module Json = Sepsat_util.Json in
  let entry (name, v) =
    let body =
      match v with
      | Counter n -> Json.Num (float_of_int n)
      | Gauge f -> Json.Num f
      | Histogram { count; sum; buckets; exemplars } ->
        let exemplar (ub, e) =
          Json.Obj
            [
              ("le", Json.Num ub);
              ("rid", Json.Str e.ex_rid);
              ("value", Json.Num e.ex_value);
              ("ts", Json.Num e.ex_ts);
            ]
        in
        Json.Obj
          ([
             ("count", Json.Num (float_of_int count));
             ("sum", Json.Num sum);
             ( "buckets",
               Json.Arr
                 (List.filter_map
                    (fun (ub, n) ->
                      if Float.is_finite ub then
                        Some
                          (Json.Arr [ Json.Num ub; Json.Num (float_of_int n) ])
                      else None)
                    buckets) );
           ]
          @
          if exemplars = [] then []
          else [ ("exemplars", Json.Arr (List.map exemplar exemplars)) ])
    in
    (name, body)
  in
  Json.Obj (List.map entry (snapshot ()))

let pp ppf () =
  List.iter
    (fun (name, v) ->
      match v with
      | Counter n -> Format.fprintf ppf "%-32s %12d@." name n
      | Gauge f -> Format.fprintf ppf "%-32s %12.4f@." name f
      | Histogram { count; sum; _ } ->
        Format.fprintf ppf "%-32s %12d obs, sum %.4f@." name count sum)
    (snapshot ())

let reset () =
  Mutex.protect mu (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | C c -> Atomic.set c 0
          | G g -> Atomic.set g 0.
          | H h ->
            Array.iter (fun b -> Atomic.set b 0) h.bins;
            Array.iter (fun e -> Atomic.set e None) h.exes;
            Atomic.set h.sum 0.)
        table)
