(** Process-global monotone clock derived from the wall clock.

    The repo has no monotonic-clock dependency, so this module clamps
    [Unix.gettimeofday] to be non-decreasing process-wide (one atomic
    CAS-max). Differences of {!mono_now} readings taken in the same
    process are valid durations even across a backwards wall-clock step.
    Raw mono readings are {e not} comparable across processes — use a
    {!pair} captured in each process to align timelines. *)

val mono_now : unit -> float
(** Seconds, non-decreasing for the lifetime of the process. Starts on
    the wall timeline and stays there unless the wall clock steps back. *)

val pair : unit -> float * float
(** [(wall, mono)] sampled from one wall reading, so the pair pins this
    process's mono timeline to the shared wall timeline at one instant.
    Every {!Obs} record and flight-dump header carries one;
    {!Flight.assemble} aligns with it. *)
