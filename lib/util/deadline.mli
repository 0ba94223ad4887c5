(** Cooperative CPU-time and wall-clock budgets.

    Long-running phases (SAT search, transitivity-constraint generation, the
    lazy refinement loop) poll a deadline and abort with {!Timeout} when the
    budget is exhausted, standing in for the paper's 30-minute wall-clock
    timeout at laptop-friendly scales.

    Single-method runs use processor-time deadlines ({!after}), matching the
    paper's CPU-budget methodology. The serve engine's worker pool uses
    wall-clock deadlines ({!after_wall}): [Sys.time] accumulates across
    every running domain, so a CPU deadline would fire N times too early
    when N domains solve at once. *)

type t

exception Timeout

val none : t
(** A deadline that never fires. *)

val after : float -> t
(** [after s] fires [s] seconds of processor time from now. *)

val after_wall : float -> t
(** [after_wall s] fires [s] seconds of wall-clock time from now. *)

val with_stop : t -> bool Atomic.t -> t
(** [with_stop t flag] also fires as soon as [flag] becomes true — the one
    cancellation channel: the serve engine's [shutdown] raises the shared
    flag and every deadline poll in its in-flight solves (translation loops
    and SAT search included) observes it. *)

val interrupted : t -> bool
(** Whether the {!with_stop} flag (if any) has been raised — distinguishes
    cancellation from a genuine budget timeout. *)

val exceeded : t -> bool

val check : t -> unit
(** @raise Timeout if the deadline has passed. *)

val now : unit -> float
(** Processor time in seconds, the clock CPU deadlines are measured
    against. *)

val wall_now : unit -> float
(** Wall-clock time in seconds, the clock wall deadlines are measured
    against. *)
