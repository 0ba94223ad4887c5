(** Scenario-generation batches: [n_units] symbol-disjoint store-buffer
    units, each demanding a local "dirty read" scenario, conjoined into one
    joint-feasibility query. The formula claims the joint scenario is
    impossible, so a healthy batch is {e invalid} and its countermodel is
    every unit's scenario at once. The units share no symbols, so HYBRID
    sees many small separation classes and the encode and CNF phases
    dominate the run. [bug] overconstrains the last unit into infeasibility,
    making the batch vacuously valid through a single UNSAT unit. *)

val formula :
  ?bug:bool -> Sepsat_suf.Ast.ctx -> n_units:int -> n_ops:int ->
  Sepsat_suf.Ast.formula
