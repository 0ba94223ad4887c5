(** SatELite-style pre/inprocessing over the {!Db} clause arena: backward
    subsumption, self-subsumption strengthening, bounded variable elimination
    and blocked-clause elimination.

    The module mutates the shared solver state in place and keeps three
    invariants the rest of the system depends on:

    - DRUP soundness: every clause it adds (resolvents, strengthenings) is
      logged as a RUP addition before anything it replaces is dropped, and
      clauses parked on the model-extension stack are never logged as deleted,
      so the proof checker's database stays a superset of the live one.
    - Model totality: every removal that can unsatisfy a model pushes a
      witness entry onto {!Db}'s extension stack; [Db.extend_model] replays it.
    - Incremental safety: frozen variables (those a later clause increment
      restored from the extension stack) are never chosen for elimination or
      as blocking literals. *)

val simplify : Db.t -> deadline:Sepsat_util.Deadline.t -> max_rounds:int -> unit
(** Run up to [max_rounds] simplification rounds at decision level 0, then
    rebuild the watch lists and propagate to quiescence. No-op unless the
    trail is at the root. Respects the deadline, cancellation through
    {!Sepsat_util.Deadline.with_stop} included, aborting between rewrites
    with the database consistent. *)
