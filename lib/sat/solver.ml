module Deadline = Sepsat_util.Deadline
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics
module Progress = Sepsat_obs.Progress
module Iv = Db.Iv

(* The CDCL search and public API over the data-oriented core in [Db]:
   clauses live in a flat int arena, watches are flat (cref, blocker) int
   vectors, and all literals inside the hot path are raw ints in the [Lit]
   packing. [Simplifier] provides SatELite-style pre/inprocessing; this module
   schedules it before a solve and between restarts.

   Truth values: 0 = undefined, 1 = true, -1 = false. *)

type t = Db.t

type result = Sat | Unsat | Unknown

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  clauses : int;
  learnts : int;
  max_vars : int;
  eliminated : int;
  simp_rounds : int;
  simp_subsumed : int;
  simp_strengthened : int;
  simp_vars_eliminated : int;
  simp_blocked : int;
  simp_restored : int;
}

let create () = Db.create ()

let start_proof (s : t) =
  let p = Proof.create () in
  s.Db.proof <- Some p;
  p

let set_simplify (s : t) on = s.Db.simp_enabled <- on

let is_eliminated (s : t) v = v < s.Db.nvars && s.Db.elimed.(v)

let nvars (s : t) = s.Db.nvars

let new_var = Db.new_var

let add_clause (s : t) lits =
  Db.add_clause s (Lit.array_as_ints (Array.of_list lits))

let add_clause_array (s : t) lits = Db.add_clause s (Lit.array_as_ints lits)

(* -- Conflict analysis (first UIP) --------------------------------------- *)

let litredundant (s : t) l =
  (* Basic minimization: a literal is redundant if it has a reason clause all
     of whose other literals are already seen or at level 0. *)
  let r = s.Db.reason.(l lsr 1) in
  r <> Db.cref_undef
  &&
  let ok = ref true in
  for k = 0 to Db.clause_size s r - 1 do
    let q = Db.clause_lit s r k in
    let v = q lsr 1 in
    if v <> l lsr 1 && (not s.Db.seen.(v)) && s.Db.level.(v) <> 0 then
      ok := false
  done;
  !ok

let analyze (s : t) confl =
  let out = s.Db.tmp_out in
  Iv.clear out;
  Iv.push out 0 (* slot for the asserting literal *);
  let to_clear = s.Db.tmp_clear in
  Iv.clear to_clear;
  let path = ref 0 in
  let p = ref 0 in
  let first = ref true in
  let c = ref confl in
  let index = ref (Iv.size s.Db.trail - 1) in
  let continue = ref true in
  while !continue do
    if Db.clause_learnt s !c then Db.cla_bump s !c;
    let start = if !first then 0 else 1 in
    for k = start to Db.clause_size s !c - 1 do
      let q = Db.clause_lit s !c k in
      let v = q lsr 1 in
      if (not s.Db.seen.(v)) && s.Db.level.(v) > 0 then begin
        Db.var_bump s v;
        s.Db.seen.(v) <- true;
        Iv.push to_clear v;
        if s.Db.level.(v) >= Db.decision_level s then incr path
        else Iv.push out q
      end
    done;
    (* Select the next trail literal to expand. *)
    while not s.Db.seen.(Iv.get s.Db.trail !index lsr 1) do
      decr index
    done;
    p := Iv.get s.Db.trail !index;
    decr index;
    c := s.Db.reason.(!p lsr 1);
    s.Db.seen.(!p lsr 1) <- false;
    decr path;
    first := false;
    if !path <= 0 then continue := false
  done;
  Iv.set out 0 (!p lxor 1);
  (* Minimize. *)
  let keep = s.Db.tmp_keep in
  Iv.clear keep;
  Iv.push keep (Iv.get out 0);
  for k = 1 to Iv.size out - 1 do
    let l = Iv.get out k in
    if not (litredundant s l) then Iv.push keep l
  done;
  (* Find backtrack level: highest level among keep[1..]. *)
  let btlevel = ref 0 in
  if Iv.size keep > 1 then begin
    let maxi = ref 1 in
    for k = 2 to Iv.size keep - 1 do
      if s.Db.level.(Iv.get keep k lsr 1) > s.Db.level.(Iv.get keep !maxi lsr 1)
      then maxi := k
    done;
    btlevel := s.Db.level.(Iv.get keep !maxi lsr 1);
    let a = Iv.get keep 1 and b = Iv.get keep !maxi in
    Iv.set keep 1 b;
    Iv.set keep !maxi a
  end;
  for k = 0 to Iv.size to_clear - 1 do
    s.Db.seen.(Iv.get to_clear k) <- false
  done;
  (keep, !btlevel)

(* -- Learnt clause management --------------------------------------------- *)

let locked (s : t) cr =
  Db.clause_size s cr > 0
  &&
  let l0 = Db.clause_lit s cr 0 in
  s.Db.reason.(l0 lsr 1) = cr && Db.value_lit s l0 = 1

let reduce_db (s : t) =
  let n = Iv.size s.Db.learnts in
  let arr = Array.init n (fun i -> Iv.get s.Db.learnts i) in
  Array.sort (fun a b -> compare (Db.clause_act s b) (Db.clause_act s a)) arr;
  let keep_count = n / 2 in
  Iv.clear s.Db.learnts;
  Array.iteri
    (fun i cr ->
      if i < keep_count || locked s cr || Db.clause_size s cr <= 2 then
        Iv.push s.Db.learnts cr
      else begin
        Db.log_deleted s (Db.clause_lits_list s cr);
        Db.detach s cr;
        Db.mark_dead s cr
      end)
    arr;
  Db.maybe_gc s

(* -- Search ---------------------------------------------------------------- *)

let pick_branch_var (s : t) =
  let rec loop () =
    if Iv.size s.Db.heap = 0 then -1
    else
      let v = Db.heap_pop s in
      if s.Db.assigns.(v) = 0 && not s.Db.elimed.(v) then v else loop ()
  in
  loop ()

let record_learnt (s : t) (keep : Iv.t) =
  let lits =
    let rec go i acc = if i < 0 then acc else go (i - 1) (Iv.get keep i :: acc) in
    go (Iv.size keep - 1) []
  in
  Db.log_learned s lits;
  match lits with
  | [] -> s.Db.ok <- false
  | [ l ] -> Db.unchecked_enqueue s l Db.cref_undef
  | l :: _ ->
    let cr =
      Db.alloc_clause s (Array.init (Iv.size keep) (Iv.get keep)) ~learnt:true
    in
    Iv.push s.Db.learnts cr;
    Db.attach s cr;
    Db.cla_bump s cr;
    Db.unchecked_enqueue s l cr

let luby y x =
  (* Finite-subsequence Luby restart sequence. *)
  let rec find_size size seq =
    if size >= x + 1 then (size, seq) else find_size ((2 * size) + 1) (seq + 1)
  in
  let rec loop x (size, seq) =
    if size - 1 = x then (size, seq)
    else
      let size = (size - 1) / 2 in
      loop (x mod size) (size, seq - 1)
  in
  let size, seq = loop x (find_size 1 0) in
  ignore size;
  y ** float_of_int seq

exception Solved of result

(* Records the satisfying assignment — extended over the simplifier's
   elimination stack to a total model of the input — and feeds it back into
   the branching phases, so the next (incremental) call re-converges on a
   nearby model. *)
let save_model (s : t) =
  let m =
    Array.init s.Db.nvars (fun v ->
        match s.Db.assigns.(v) with
        | 1 -> true
        | -1 -> false
        | _ -> s.Db.polarity.(v))
  in
  Db.extend_model s m;
  s.Db.model <- Some m;
  for v = 0 to s.Db.nvars - 1 do
    s.Db.polarity.(v) <- m.(v)
  done

let search (s : t) ~nof_conflicts ~deadline =
  let conflict_count = ref 0 in
  let rec loop () =
    let confl = Db.propagate s in
    if confl <> Db.cref_undef then begin
      s.Db.n_conflicts <- s.Db.n_conflicts + 1;
      incr conflict_count;
      if Db.decision_level s = 0 then begin
        Db.confirm_unsat s;
        raise (Solved Unsat)
      end;
      let keep, btlevel = analyze s confl in
      Db.cancel_until s btlevel;
      record_learnt s keep;
      Db.var_decay_activity s;
      Db.cla_decay_activity s;
      (* The periodic poll doubles as the progress-snapshot point: no new
         branches in propagation, one mask test per conflict. *)
      if s.Db.n_conflicts land 1023 = 0 then begin
        if Deadline.exceeded deadline then raise (Solved Unknown);
        Progress.tick ~conflicts:s.Db.n_conflicts ~decisions:s.Db.n_decisions
          ~propagations:s.Db.n_props ~learnts:(Iv.size s.Db.learnts)
          ~trail:(Iv.size s.Db.trail) ~vars:s.Db.nvars
          ~level:(Db.decision_level s) ~started:s.Db.solve_started
      end;
      loop ()
    end
    else begin
      if !conflict_count >= nof_conflicts then begin
        s.Db.n_restarts <- s.Db.n_restarts + 1;
        Db.cancel_until s 0
        (* restart: return to [solve], which may inprocess before re-entry *)
      end
      else if
        Iv.size s.Db.learnts >= (Iv.size s.Db.clauses / 2) + 5000 + s.Db.nvars
      then begin
        reduce_db s;
        loop ()
      end
      else begin
        let v = pick_branch_var s in
        if v < 0 then begin
          save_model s;
          raise (Solved Sat)
        end;
        s.Db.n_decisions <- s.Db.n_decisions + 1;
        Iv.push s.Db.trail_lim (Iv.size s.Db.trail);
        Db.unchecked_enqueue s
          ((2 * v) + if s.Db.polarity.(v) then 0 else 1)
          Db.cref_undef;
        loop ()
      end
    end
  in
  loop ()

let stats (s : t) =
  {
    conflicts = s.Db.n_conflicts;
    decisions = s.Db.n_decisions;
    propagations = s.Db.n_props;
    restarts = s.Db.n_restarts;
    clauses = Iv.size s.Db.clauses;
    learnts = Iv.size s.Db.learnts;
    max_vars = s.Db.nvars;
    eliminated = s.Db.n_eliminated;
    simp_rounds = s.Db.n_simp_rounds;
    simp_subsumed = s.Db.n_subsumed;
    simp_strengthened = s.Db.n_strengthened;
    simp_vars_eliminated = s.Db.n_elim_vars;
    simp_blocked = s.Db.n_blocked;
    simp_restored = s.Db.n_restored;
  }

(* Metric handles are shared across every solver instance; each is a
   once-cell that registers on first (enabled) use. *)
let m_solves = Metrics.handle Metrics.counter "sat.solves"

let m_conflicts = Metrics.handle Metrics.counter "sat.conflicts"

let m_decisions = Metrics.handle Metrics.counter "sat.decisions"

let m_propagations = Metrics.handle Metrics.counter "sat.propagations"

let m_restarts = Metrics.handle Metrics.counter "sat.restarts"

let m_solve_seconds = Metrics.handle Metrics.histogram "sat.solve_seconds"

let publish_deltas before after elapsed =
  Metrics.incr (m_solves ());
  Metrics.add (m_conflicts ()) (after.conflicts - before.conflicts);
  Metrics.add (m_decisions ()) (after.decisions - before.decisions);
  Metrics.add (m_propagations ())
    (after.propagations - before.propagations);
  Metrics.add (m_restarts ()) (after.restarts - before.restarts);
  Metrics.observe (m_solve_seconds ()) elapsed

(* Inprocessing cadence: first pass after [simp_base] conflicts, then backing
   off linearly with the number of rounds already run. *)
let simp_base = 3000

(* Whether eager preprocessing pays depends on how conflict-heavy the search
   turns out to be, which cannot be known up front.  On a small database a
   full SatELite pass costs a few milliseconds either way; on a large one it
   can cost multiples of an easy solve (the wide EIJ encodings finish in a few
   hundred conflicts), so above this many problem clauses all simplification
   is deferred to conflict-triggered inprocessing, which fires only once the
   search has proven the instance hard. *)
let preprocess_clause_limit = 5000

(* A pass costs the whole database, so a small increment does not buy one:
   preprocessing reruns only once the clauses added since the last pass
   reach this fraction (1/n) of the database. A fresh solver's first solve
   always qualifies; a lazy-refinement lemma never does on its own. *)
let preprocess_growth = 10

let maybe_inprocess (s : t) ~deadline =
  if s.Db.simp_enabled && s.Db.n_conflicts >= s.Db.next_simp then begin
    Simplifier.simplify s ~deadline ~max_rounds:1;
    s.Db.next_simp <-
      s.Db.n_conflicts + simp_base + (1000 * s.Db.n_simp_rounds)
  end

let solve ?(deadline = Deadline.none) (s : t) =
  if not s.Db.ok then Unsat
  else begin
    Db.cancel_until s 0;
    s.Db.model <- None;
    s.Db.solve_started <- Deadline.wall_now ();
    (* One snapshot at solve start: short solves (most serve requests) never
       reach the 1024-conflict poll, and live lane views need to see a lane
       the moment it starts working, not only once it struggles. *)
    Progress.tick ~conflicts:s.Db.n_conflicts ~decisions:s.Db.n_decisions
      ~propagations:s.Db.n_props ~learnts:(Iv.size s.Db.learnts)
      ~trail:(Iv.size s.Db.trail) ~vars:s.Db.nvars
      ~level:(Db.decision_level s) ~started:s.Db.solve_started;
    let before = if Obs.enabled () then Some (stats s) else None in
    let finish r =
      (* Back to the root so clauses can be added at once; phase saving in
         [cancel_until] retains the branching state. *)
      Db.cancel_until s 0;
      (match before with
      | Some b ->
        publish_deltas b (stats s) (Deadline.wall_now () -. s.Db.solve_started)
      | None -> ());
      r
    in
    try
      if Db.propagate s <> Db.cref_undef then begin
        Db.confirm_unsat s;
        raise (Solved Unsat)
      end;
      if s.Db.simp_enabled then begin
        let n = Iv.size s.Db.clauses in
        if
          s.Db.dirty > 0 && n <= preprocess_clause_limit
          && s.Db.dirty * preprocess_growth >= n
        then begin
          Simplifier.simplify s ~deadline ~max_rounds:3;
          if not s.Db.ok then raise (Solved Unsat)
        end;
        s.Db.next_simp <- s.Db.n_conflicts + simp_base
      end;
      let restart = ref 0 in
      while true do
        let nof_conflicts = int_of_float (100. *. luby 2. !restart) in
        incr restart;
        search s ~nof_conflicts ~deadline;
        if Deadline.exceeded deadline then raise (Solved Unknown);
        maybe_inprocess s ~deadline;
        if not s.Db.ok then raise (Solved Unsat)
      done;
      assert false
    with Solved r -> finish r
  end

let simplify (s : t) =
  if s.Db.ok then begin
    Db.cancel_until s 0;
    s.Db.model <- None;
    if Db.propagate s <> Db.cref_undef then Db.confirm_unsat s
    else Simplifier.simplify s ~deadline:Deadline.none ~max_rounds:3
  end

let model (s : t) =
  match s.Db.model with
  | Some m -> Array.copy m
  | None -> invalid_arg "Solver.model: no model available"

let value (s : t) l =
  match s.Db.model with
  | Some m ->
    let b = m.(Lit.var l) in
    if Lit.sign l then b else not b
  | None -> invalid_arg "Solver.value: no model available"

let export_cnf (s : t) =
  let units = ref [] in
  (* Root-level facts live on the trail, not in the clause database. *)
  for i = Iv.size s.Db.trail - 1 downto 0 do
    let p = Iv.get s.Db.trail i in
    if s.Db.level.(p lsr 1) = 0 then units := [ Lit.of_int p ] :: !units
  done;
  let clauses = ref !units in
  for i = Iv.size s.Db.clauses - 1 downto 0 do
    let cr = Iv.get s.Db.clauses i in
    if not (Db.clause_dead s cr) then
      clauses := List.map Lit.of_int (Db.clause_lits_list s cr) :: !clauses
  done;
  (s.Db.nvars, !clauses)

let pp_stats ppf st =
  Format.fprintf ppf
    "vars=%d clauses=%d conflicts=%d decisions=%d propagations=%d restarts=%d \
     learnts=%d eliminated=%d simp_rounds=%d subsumed=%d strengthened=%d \
     vars_eliminated=%d blocked=%d restored=%d"
    st.max_vars st.clauses st.conflicts st.decisions st.propagations
    st.restarts st.learnts st.eliminated st.simp_rounds st.simp_subsumed
    st.simp_strengthened st.simp_vars_eliminated st.simp_blocked
    st.simp_restored
