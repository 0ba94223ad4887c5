(** Named counters, gauges and histograms — one publication interface for
    the whole pipeline.

    Registration ([{!counter}], [{!gauge}], [{!histogram}]) is idempotent by
    name and takes a global mutex; keep the handle (or register on first
    use through {!handle}) rather than re-looking up on a hot path. Updates are lock-free
    (atomics) and domain-safe, and gated on {!Obs.enabled}, the store's one
    switch: a disabled-mode update is one atomic load and a branch.
    Long-lived servers turn the store on at startup, so their operational
    counters always move.

    Reads ({!snapshot}, {!to_json}) are meant for end-of-run reporting; they
    see a consistent-enough view once updating domains have quiesced. *)

type counter

type gauge

type histogram

type exemplar = { ex_rid : string; ex_value : float; ex_ts : float }
(** A concrete traceable observation: the request id, value and wall-clock
    time of the max-valued rid-carrying observation a histogram bucket has
    seen since the last {!reset}. *)

val handle : (string -> 'a) -> string -> unit -> 'a
(** [handle counter name] registers on first use, from any domain. A
    [lazy] would raise [Lazy.Undefined] when two domains force it at once;
    racing first uses here both register, which is idempotent. *)

val counter : string -> counter
(** Find-or-create. @raise Invalid_argument if [name] is already registered
    as a different metric kind. *)

val gauge : string -> gauge

val histogram : ?buckets:float array -> string -> histogram
(** [buckets] are the upper bounds of the histogram bins (an implicit
    [+inf] bin is appended); default is a base-4 exponential ladder from
    1e-6 suited to phase durations in seconds. [buckets] is ignored when
    [name] already exists. *)

val incr : counter -> unit

val add : counter -> int -> unit

val set : gauge -> float -> unit

val observe : ?rid:string -> histogram -> float -> unit
(** [observe ?rid h v] adds [v] to the histogram. When [rid] is given, the
    target bucket's exemplar slot is updated (CAS, keep-max) if [v] exceeds
    the slot's current value — so each bucket remembers the worst concrete
    request it has absorbed. *)

val exemplars : histogram -> (float * exemplar) list
(** Per-bucket exemplars: [(upper_bound, exemplar)] for every bucket that
    has one, the [+inf] bucket (bound [infinity]) last. *)

val get : counter -> int

(** {2 Reporting} *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      count : int;
      sum : float;
      buckets : (float * int) list;
      exemplars : (float * exemplar) list;
    }
      (** [buckets] pairs each upper bound with its cumulative-free bin
          count; the [+inf] bin is last. [count] is derived from the bins at
          read time, so a snapshot racing {!reset} can never report a
          non-zero count against all-zero buckets. [exemplars] lists the
          buckets that have one (see {!exemplars}). *)

val snapshot : unit -> (string * value) list
(** Every registered metric with its current value, sorted by name. *)

val to_json : unit -> Sepsat_util.Json.t
(** The snapshot as one JSON object keyed by metric name: counters as
    integers, gauges as floats, histograms as
    [{"count":n,"sum":s,"buckets":[[ub,n],...]}] plus an ["exemplars"]
    array of [{"le","rid","value","ts"}] when any bucket holds one (the
    [+inf] bucket's exemplar has ["le":null]). Strict JSON: non-finite
    floats print as [null], and only finite-bound buckets are listed — the
    [+inf] bin is implicit ([count] minus the listed bins). An empty
    object when nothing is registered. *)

val pp : Format.formatter -> unit -> unit
(** Human-readable table of the snapshot (the [--stats] view). *)

val reset : unit -> unit
(** Zero every registered metric (registrations are kept). *)
