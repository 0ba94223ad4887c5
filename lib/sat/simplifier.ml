(* SatELite-style clause-database simplification over the [Db] arena:
   subsumption, self-subsumption strengthening, bounded variable elimination
   and blocked-clause elimination, scheduled by [Solver] before a solve
   (preprocessing) and between restarts (inprocessing).

   Proof discipline under elimination:
   - Resolvents and strengthened clauses are valid RUP additions, logged as
     [Learned] before the clauses they replace are dropped.
   - Clauses removed because they are subsumed or satisfied at the root are
     logged as [Deleted].
   - Clauses parked on the model-extension stack (the originals of an
     eliminated variable, blocked clauses) are *not* logged as deleted: the
     checker keeps a superset of the live database, which is sound for RUP
     checking and lets [Db.restore_entry] re-add them later without any
     non-RUP proof step.

   All work happens at decision level 0. Derived unit clauses are enqueued on
   the trail immediately but propagated only once at the end, after
   [Db.rebuild_watches] has restored the two-watch invariant over the
   surviving clauses. *)

module Deadline = Sepsat_util.Deadline
module Obs = Sepsat_obs.Obs
module Metrics = Sepsat_obs.Metrics

let subsumption_occ_limit = 500

let bve_occ_limit = 10

let bve_clause_limit = 24

let bce_occ_limit = 60

(* Metric handles are shared across solver instances. *)
let m_rounds = Metrics.handle Metrics.counter "sat.simplify.rounds"

let m_subsumed = Metrics.handle Metrics.counter "sat.simplify.subsumed"

let m_strengthened = Metrics.handle Metrics.counter "sat.simplify.strengthened"

let m_elim_vars = Metrics.handle Metrics.counter "sat.simplify.eliminated_vars"

let m_blocked = Metrics.handle Metrics.counter "sat.simplify.blocked"

let m_restored = Metrics.handle Metrics.counter "sat.simplify.restored"

let m_seconds = Metrics.handle Metrics.histogram "sat.simplify_seconds"

exception Closed
(* The database became unsat (or the deadline fired) mid-round. *)

let check_continue (s : Db.t) ~deadline =
  if (not s.Db.ok) || Deadline.exceeded deadline then raise Closed

(* Enqueue a derived root-level unit, closing the instance when it contradicts
   the trail. The unit itself has already been logged as [Learned]. *)
let assert_unit (s : Db.t) l =
  match Db.value_lit s l with
  | -1 -> Db.confirm_unsat s
  | 0 -> Db.unchecked_enqueue s l Db.cref_undef
  | _ -> ()

(* -- Root cleanup: drop satisfied clauses, strip false literals ------------- *)

let cleanup_clause (s : Db.t) cr =
  let sz = Db.clause_size s cr in
  let sat = ref false in
  let nfalse = ref 0 in
  for i = 0 to sz - 1 do
    match Db.value_lit s (Db.clause_lit s cr i) with
    | 1 -> sat := true
    | -1 -> incr nfalse
    | _ -> ()
  done;
  if !sat then begin
    Db.log_deleted s (Db.clause_lits_list s cr);
    Db.mark_dead s cr;
    true
  end
  else if !nfalse > 0 then begin
    let old = Db.clause_lits_list s cr in
    let live = List.filter (fun l -> Db.value_lit s l <> -1) old in
    Db.log_learned s live;
    Db.log_deleted s old;
    List.iter
      (fun l -> if Db.value_lit s l = -1 then Db.clause_remove_lit s cr l)
      old;
    (match live with
    | [] ->
      Db.mark_dead s cr;
      Db.confirm_unsat s
    | [ l ] ->
      Db.mark_dead s cr;
      assert_unit s l
    | _ -> ());
    true
  end
  else false

(* -- Occurrence lists -------------------------------------------------------- *)

(* Variable-indexed occurrence lists over live problem clauses, rebuilt each
   round. Entries can go stale when a clause dies; readers re-check. Literals
   removed by strengthening are expunged eagerly so BVE polarity counts stay
   honest. *)
type occs = Db.Iv.t array

let build_occs (s : Db.t) : occs =
  let occ = Array.init s.Db.nvars (fun _ -> Db.Iv.create ~cap:4 ()) in
  for i = 0 to Db.Iv.size s.Db.clauses - 1 do
    let cr = Db.Iv.get s.Db.clauses i in
    if not (Db.clause_dead s cr) then begin
      Db.clause_calc_sig s cr;
      for k = 0 to Db.clause_size s cr - 1 do
        Db.Iv.push occ.(Db.clause_lit s cr k lsr 1) cr
      done
    end
  done;
  occ

let occ_remove (occ : occs) v cr =
  let ws = occ.(v) in
  let n = Db.Iv.size ws in
  let i = ref 0 in
  while !i < n && Db.Iv.get ws !i <> cr do
    incr i
  done;
  if !i < n then begin
    Db.Iv.set ws !i (Db.Iv.get ws (n - 1));
    Db.Iv.shrink ws (n - 1)
  end

(* -- Subsumption / self-subsumption ------------------------------------------ *)

(* MiniSat's [Clause::subsumes]: [`Sub] when C ⊆ D; [`Str l] when C subsumes D
   with exactly one literal flipped, in which case removing [l] from D (the
   resolvent of C and D, which C makes RUP) strengthens it; [`No] otherwise. *)
let subsumes (s : Db.t) c d =
  let csz = Db.clause_size s c and dsz = Db.clause_size s d in
  let flipped = ref (-1) in
  let ok = ref true in
  let i = ref 0 in
  while !ok && !i < csz do
    let lc = Db.clause_lit s c !i in
    let found = ref false in
    let j = ref 0 in
    while (not !found) && !j < dsz do
      let ld = Db.clause_lit s d !j in
      if ld = lc then found := true
      else if ld = lc lxor 1 && !flipped < 0 then begin
        flipped := ld;
        found := true
      end;
      incr j
    done;
    if not !found then ok := false;
    incr i
  done;
  if not !ok then `No else if !flipped < 0 then `Sub else `Str !flipped

let strengthen (s : Db.t) occ queue cr l =
  let old = Db.clause_lits_list s cr in
  let live = List.filter (fun x -> x <> l) old in
  Db.log_learned s live;
  Db.log_deleted s old;
  Db.clause_remove_lit s cr l;
  occ_remove occ (l lsr 1) cr;
  s.Db.n_strengthened <- s.Db.n_strengthened + 1;
  match live with
  | [ u ] ->
    Db.mark_dead s cr;
    assert_unit s u
  | _ ->
    Db.clause_calc_sig s cr;
    Db.Iv.push queue cr

(* Backward subsumption with a worklist: each queued clause C kills or
   strengthens the clauses sharing its rarest variable. Signatures (62-bit
   variable masks in the arena's second header word) filter most candidates
   without touching their literals. *)
let subsumption_pass (s : Db.t) (occ : occs) ~deadline =
  let queue = Db.Iv.create ~cap:(Db.Iv.size s.Db.clauses) () in
  for i = 0 to Db.Iv.size s.Db.clauses - 1 do
    let cr = Db.Iv.get s.Db.clauses i in
    if not (Db.clause_dead s cr) then Db.Iv.push queue cr
  done;
  let changed = ref false in
  let qi = ref 0 in
  while !qi < Db.Iv.size queue do
    if !qi land 63 = 0 then check_continue s ~deadline;
    let c = Db.Iv.get queue !qi in
    incr qi;
    if not (Db.clause_dead s c) then begin
      (* rarest variable of C *)
      let best = ref (Db.clause_lit s c 0 lsr 1) in
      for k = 1 to Db.clause_size s c - 1 do
        let v = Db.clause_lit s c k lsr 1 in
        if Db.Iv.size occ.(v) < Db.Iv.size occ.(!best) then best := v
      done;
      let ws = occ.(!best) in
      if Db.Iv.size ws <= subsumption_occ_limit then begin
        let csig = Db.clause_sig s c in
        let i = ref 0 in
        while !i < Db.Iv.size ws do
          let d = Db.Iv.get ws !i in
          incr i;
          if
            d <> c
            && (not (Db.clause_dead s d))
            && (not (Db.clause_dead s c))
            && Db.clause_size s d >= Db.clause_size s c
            && csig land lnot (Db.clause_sig s d) = 0
          then
            match subsumes s c d with
            | `No -> ()
            | `Sub ->
              Db.log_deleted s (Db.clause_lits_list s d);
              Db.mark_dead s d;
              s.Db.n_subsumed <- s.Db.n_subsumed + 1;
              changed := true
            | `Str l ->
              strengthen s occ queue d l;
              changed := true;
              (* strengthening may have shifted [ws] under us *)
              i := 0
        done
      end
    end
  done;
  !changed

(* -- Bounded variable elimination --------------------------------------------- *)

(* Resolvent of [c] and [d] on variable [v]; [None] when tautological. *)
let resolve (s : Db.t) c d v =
  let lits = ref [] in
  let taut = ref false in
  let add l =
    if l lsr 1 <> v then
      if List.mem (l lxor 1) !lits then taut := true
      else if not (List.mem l !lits) then lits := l :: !lits
  in
  for i = 0 to Db.clause_size s c - 1 do
    add (Db.clause_lit s c i)
  done;
  for i = 0 to Db.clause_size s d - 1 do
    if not !taut then add (Db.clause_lit s d i)
  done;
  if !taut then None else Some (List.sort compare !lits)

let live_occs (s : Db.t) (occ : occs) v =
  let pos = ref [] and neg = ref [] in
  for i = 0 to Db.Iv.size occ.(v) - 1 do
    let cr = Db.Iv.get occ.(v) i in
    if not (Db.clause_dead s cr) then begin
      let has_pos = ref false in
      for k = 0 to Db.clause_size s cr - 1 do
        if Db.clause_lit s cr k = 2 * v then has_pos := true
      done;
      if !has_pos then pos := cr :: !pos else neg := cr :: !neg
    end
  done;
  (!pos, !neg)

(* Eliminate [v] when the set of non-tautological resolvents is no larger
   than the set of clauses it replaces (SatELite's grow-0 rule, with a cap on
   resolvent width). The originals move to the extension stack — witnessed by
   their [v]-literal — so models extend and later increments can restore. *)
let try_eliminate (s : Db.t) (occ : occs) queue v =
  let pos, neg = live_occs s occ v in
  let npos = List.length pos and nneg = List.length neg in
  if npos > bve_occ_limit && nneg > bve_occ_limit then false
  else begin
    let limit = npos + nneg in
    let resolvents = ref [] in
    let count = ref 0 in
    let feasible = ref true in
    List.iter
      (fun c ->
        List.iter
          (fun d ->
            if !feasible then
              match resolve s c d v with
              | None -> ()
              | Some lits ->
                incr count;
                if !count > limit || List.length lits > bve_clause_limit then
                  feasible := false
                else resolvents := lits :: !resolvents)
          neg)
      pos;
    if not !feasible then false
    else begin
      (* Log and add the resolvents first, then park the originals. *)
      List.iter
        (fun lits ->
          Db.log_learned s lits;
          match lits with
          | [ u ] -> assert_unit s u
          | _ ->
            let cr = Db.alloc_clause s (Array.of_list lits) ~learnt:false in
            Db.Iv.push s.Db.clauses cr;
            Db.clause_calc_sig s cr;
            List.iter (fun l -> Db.Iv.push occ.(l lsr 1) cr) lits;
            Db.Iv.push queue cr)
        !resolvents;
      List.iter
        (fun cr ->
          let witness =
            if List.mem cr pos then 2 * v else (2 * v) + 1
          in
          Db.push_ext s ~witness (Db.clause_lits_list s cr);
          Db.mark_dead s cr)
        (pos @ neg);
      s.Db.elimed.(v) <- true;
      s.Db.n_elim_vars <- s.Db.n_elim_vars + 1;
      true
    end
  end

let bve_pass (s : Db.t) (occ : occs) ~deadline =
  (* Cheapest variables first: elimination of low-occurrence variables is the
     most likely to shrink the database and unlock further eliminations. *)
  let order = Array.init s.Db.nvars (fun v -> v) in
  Array.sort
    (fun a b -> compare (Db.Iv.size occ.(a)) (Db.Iv.size occ.(b)))
    order;
  let queue = Db.Iv.create () in
  let changed = ref false in
  Array.iteri
    (fun i v ->
      if i land 63 = 0 then check_continue s ~deadline;
      if
        s.Db.ok
        && (not s.Db.frozen.(v))
        && (not s.Db.elimed.(v))
        && s.Db.assigns.(v) = 0
      then if try_eliminate s occ queue v then changed := true)
    order;
  !changed

(* -- Blocked-clause elimination ------------------------------------------------ *)

(* C is blocked on l when every resolvent of C with a clause containing ¬l is
   tautological; removing C preserves satisfiability and the extension stack
   entry (witness l) repairs any model. Checked against problem clauses only —
   learnts are implied by the input, so the reconstructed model satisfies them
   vacuously. *)
let blocked_on (s : Db.t) (occ : occs) cr l =
  let nl = l lxor 1 in
  let v = l lsr 1 in
  let ws = occ.(v) in
  let n = Db.Iv.size ws in
  if n > bce_occ_limit then false
  else begin
    let all_taut = ref true in
    let i = ref 0 in
    while !all_taut && !i < n do
      let d = Db.Iv.get ws !i in
      incr i;
      if d <> cr && not (Db.clause_dead s d) then begin
        let has_nl = ref false in
        for k = 0 to Db.clause_size s d - 1 do
          if Db.clause_lit s d k = nl then has_nl := true
        done;
        if !has_nl then begin
          let taut = ref false in
          for a = 0 to Db.clause_size s cr - 1 do
            let m = Db.clause_lit s cr a in
            if m <> l then
              for b = 0 to Db.clause_size s d - 1 do
                if Db.clause_lit s d b = m lxor 1 then taut := true
              done
          done;
          if not !taut then all_taut := false
        end
      end
    done;
    !all_taut
  end

let bce_pass (s : Db.t) (occ : occs) ~deadline =
  let changed = ref false in
  for i = 0 to Db.Iv.size s.Db.clauses - 1 do
    if i land 63 = 0 then check_continue s ~deadline;
    let cr = Db.Iv.get s.Db.clauses i in
    if not (Db.clause_dead s cr) then begin
      let k = ref 0 in
      let sz = Db.clause_size s cr in
      let hit = ref false in
      while (not !hit) && !k < sz do
        let l = Db.clause_lit s cr !k in
        let v = l lsr 1 in
        incr k;
        if
          (not s.Db.frozen.(v))
          && (not s.Db.elimed.(v))
          && s.Db.assigns.(v) = 0
          && blocked_on s occ cr l
        then begin
          Db.push_ext s ~witness:l (Db.clause_lits_list s cr);
          Db.mark_dead s cr;
          List.iter
            (fun x -> occ_remove occ (x lsr 1) cr)
            (Db.clause_lits_list s cr);
          s.Db.n_blocked <- s.Db.n_blocked + 1;
          hit := true;
          changed := true
        end
      done
    end
  done;
  !changed

(* -- Driver --------------------------------------------------------------------- *)

let round (s : Db.t) ~deadline ~bce =
  let changed = ref false in
  (* Root cleanup over problem clauses. *)
  for i = 0 to Db.Iv.size s.Db.clauses - 1 do
    if i land 255 = 0 then check_continue s ~deadline;
    let cr = Db.Iv.get s.Db.clauses i in
    if not (Db.clause_dead s cr) then
      if cleanup_clause s cr then changed := true
  done;
  check_continue s ~deadline;
  let occ = build_occs s in
  if subsumption_pass s occ ~deadline then changed := true;
  check_continue s ~deadline;
  if bve_pass s occ ~deadline then changed := true;
  check_continue s ~deadline;
  if bce then if bce_pass s occ ~deadline then changed := true;
  s.Db.n_simp_rounds <- s.Db.n_simp_rounds + 1;
  !changed

(* Drop learnt clauses mentioning eliminated variables: they are re-derivable
   and must not keep dead variables alive. Deleting learnts is always sound
   to log. *)
let purge_learnts (s : Db.t) =
  for i = 0 to Db.Iv.size s.Db.learnts - 1 do
    let cr = Db.Iv.get s.Db.learnts i in
    if not (Db.clause_dead s cr) then begin
      let touches = ref false in
      for k = 0 to Db.clause_size s cr - 1 do
        if s.Db.elimed.(Db.clause_lit s cr k lsr 1) then touches := true
      done;
      if !touches then begin
        Db.log_deleted s (Db.clause_lits_list s cr);
        Db.mark_dead s cr
      end
    end
  done

let publish (s : Db.t) before_subsumed before_str before_elim before_blocked
    before_restored rounds elapsed =
  Metrics.add (m_rounds ()) rounds;
  Metrics.add (m_subsumed ()) (s.Db.n_subsumed - before_subsumed);
  Metrics.add (m_strengthened ())
    (s.Db.n_strengthened - before_str);
  Metrics.add (m_elim_vars ()) (s.Db.n_elim_vars - before_elim);
  Metrics.add (m_blocked ()) (s.Db.n_blocked - before_blocked);
  Metrics.add (m_restored ()) (s.Db.n_restored - before_restored);
  Metrics.observe (m_seconds ()) elapsed

(* Run up to [max_rounds] simplification rounds at decision level 0, then
   restore the two-watch invariant and propagate to quiescence. Safe to call
   whenever the trail is at the root; a deadline (cancellation included)
   aborts between (never inside) rewrites, leaving the database consistent. *)
let simplify (s : Db.t) ~deadline ~max_rounds =
  if s.Db.ok && Db.decision_level s = 0 then begin
    let started = Deadline.wall_now () in
    let obs = Obs.enabled () in
    let b_sub = s.Db.n_subsumed
    and b_str = s.Db.n_strengthened
    and b_elim = s.Db.n_elim_vars
    and b_blk = s.Db.n_blocked
    and b_res = s.Db.n_restored in
    let rounds = ref 0 in
    (try
       let continue = ref true in
       while !continue && !rounds < max_rounds do
         let changed = round s ~deadline ~bce:(!rounds = 0) in
         incr rounds;
         if not changed then continue := false
       done
     with Closed -> ());
    if s.Db.ok then begin
      purge_learnts s;
      (* Clauses were reordered and killed: rebuild watches from scratch and
         re-propagate the whole trail. *)
      if Db.rebuild_watches s then Db.confirm_unsat s
      else if Db.propagate s <> Db.cref_undef then Db.confirm_unsat s;
      Db.maybe_gc s
    end;
    s.Db.dirty <- 0;
    if obs then
      publish s b_sub b_str b_elim b_blk b_res !rounds
        (Deadline.wall_now () -. started)
  end
