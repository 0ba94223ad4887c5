(** Independent DRUP proof checker.

    Replays a {!Proof} trace with a self-contained unit-propagation engine
    that shares no code with the CDCL solver, so a successful check
    certifies an UNSAT answer without trusting the solver's search,
    learning, or simplification.

    The check runs backward, core-only (as DRAT-trim does). A forward pass
    adds every [Input] and [Learned] clause, unchecked, and propagates at
    top level until the first conflict. The backward pass marks the clauses
    that conflict rests on as core, then undoes the steps in reverse order
    and RUP-checks only the core lemmas: asserting a lemma's negation and
    propagating over the database as it stood at that step must conflict.
    The clauses each check uses become core in turn. Lemmas the refutation
    never uses are not checked, so a trace may carry unused lemmas that are
    not RUP and still be [Certified]: only what the conclusion depends on
    has to be sound.

    Deletions of non-unit clauses are honoured; unit deletions and
    deletions of clauses not in the database are ignored, and deleting a
    clause does not unassign a literal it implied (the standard lenient
    DRUP treatment — every retained clause is a logical consequence of the
    input, so the final verdict is unaffected).

    With {!Sepsat_obs.Obs} enabled, each call adds the trace's lemma count
    to the counter [drup.lemmas] and the number of lemmas it checked to
    [drup.core_checked]. *)

type result =
  | Certified
      (** the trace reaches a top-level conflict, and every lemma it
          depends on is RUP *)
  | Incomplete
      (** no conflict and no empty clause: proves nothing. No lemma is
          checked, so this says nothing about whether they are RUP *)
  | Bogus of string
      (** a lemma the conflict depends on is not RUP, or the empty clause
          is claimed before any conflict; the message carries the 1-based
          index of the offending step *)

val check : Proof.step list -> result

val certified : Proof.t -> bool
(** [check (Proof.steps p) = Certified]. *)
