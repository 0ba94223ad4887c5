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

(* -- Scratch: literal marks and buffers -------------------------------------- *)

(* Working storage for one [simplify] call. It is local to the call, never
   shared, because solvers run on several domains at once. [mark] holds one
   byte per literal: set while the literal belongs to the clause that is
   subsuming, being resolved or being tested for blocking, zero otherwise. *)
type scratch = {
  mark : Bytes.t;
  pos : Db.Iv.t;  (* live clauses containing the variable under elimination *)
  neg : Db.Iv.t;  (* ... and those containing its negation *)
  res : Db.Iv.t;  (* resolvents kept by an elimination, back to back *)
  res_off : Db.Iv.t;  (* start of each resolvent in [res], then its end *)
}

let create_scratch (s : Db.t) =
  {
    mark = Bytes.make (2 * s.Db.nvars) '\000';
    pos = Db.Iv.create ();
    neg = Db.Iv.create ();
    res = Db.Iv.create ();
    res_off = Db.Iv.create ();
  }

let[@inline] marked sc l = Bytes.unsafe_get sc.mark l <> '\000'

(* Sets ([on]) or clears the marks of the literals of [cr] not on variable
   [v]; [v] = -1 covers them all. *)
let set_marks (s : Db.t) sc cr v on =
  let c = if on then '\001' else '\000' in
  for i = 0 to Db.clause_size s cr - 1 do
    let l = Db.clause_lit s cr i in
    if l lsr 1 <> v then Bytes.unsafe_set sc.mark l c
  done

(* -- Subsumption / self-subsumption ------------------------------------------ *)

(* MiniSat's [Clause::subsumes] with C marked, C being [csz] literals wide:
   [`Sub] when C ⊆ D; [`Str l] when C subsumes D with exactly one literal
   flipped, in which case removing [l] from D (the resolvent of C and D, which
   C makes RUP) strengthens it; [`No] otherwise. One scan of D: its literals
   are distinct, so it meets each literal of C, or its complement, once. *)
let subsumes (s : Db.t) sc csz d =
  let found = ref 0 and flipped = ref (-1) and nflip = ref 0 in
  for j = 0 to Db.clause_size s d - 1 do
    let ld = Db.clause_lit s d j in
    if marked sc ld then incr found
    else if marked sc (ld lxor 1) then begin
      incr nflip;
      flipped := ld
    end
  done;
  if !found + !nflip < csz || !nflip > 1 then `No
  else if !nflip = 0 then `Sub
  else `Str !flipped

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
let subsumption_pass (s : Db.t) (occ : occs) sc ~deadline =
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
        set_marks s sc c (-1) true;
        let csz = Db.clause_size s c in
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
            match subsumes s sc csz d with
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
        done;
        set_marks s sc c (-1) false
      end
    end
  done;
  !changed

(* -- Bounded variable elimination --------------------------------------------- *)

(* Width of the resolvent on [v] of the marked clause, [cw] literals wide
   without [v], with [d]; -1 when the resolvent is tautological. Linear in
   [d], allocation-free. *)
let resolvent_width (s : Db.t) sc cw d v =
  let n = Db.clause_size s d in
  let w = ref cw in
  let i = ref 0 in
  while !i < n do
    let l = Db.clause_lit s d !i in
    incr i;
    if l lsr 1 <> v then
      if marked sc (l lxor 1) then begin
        w := -1;
        i := n
      end
      else if not (marked sc l) then incr w
  done;
  !w

(* Appends the sorted resolvent on [v] of the marked clause [c] with [d] to
   [sc.res], unless it is tautological. *)
let push_resolvent (s : Db.t) sc c d v =
  let r = sc.res in
  let start = Db.Iv.size r in
  if resolvent_width s sc 0 d v >= 0 then begin
    for i = 0 to Db.clause_size s c - 1 do
      let l = Db.clause_lit s c i in
      if l lsr 1 <> v then Db.Iv.push r l
    done;
    for i = 0 to Db.clause_size s d - 1 do
      let l = Db.clause_lit s d i in
      if l lsr 1 <> v && not (marked sc l) then Db.Iv.push r l
    done;
    Db.sort_range r.Db.Iv.a start (Db.Iv.size r);
    Db.Iv.push sc.res_off (Db.Iv.size r)
  end

(* Splits the live occurrences of [v] into [sc.pos] and [sc.neg], newest
   occurrence first. *)
let live_occs (s : Db.t) (occ : occs) sc v =
  Db.Iv.clear sc.pos;
  Db.Iv.clear sc.neg;
  let ws = occ.(v) in
  for i = Db.Iv.size ws - 1 downto 0 do
    let cr = Db.Iv.get ws i in
    if not (Db.clause_dead s cr) then begin
      let sz = Db.clause_size s cr in
      let k = ref 0 in
      while !k < sz && Db.clause_lit s cr !k lsr 1 <> v do
        incr k
      done;
      Db.Iv.push
        (if !k < sz && Db.clause_lit s cr !k = 2 * v then sc.pos else sc.neg)
        cr
    end
  done

(* Eliminate [v] when the set of non-tautological resolvents is no larger
   than the set of clauses it replaces (SatELite's grow-0 rule, with a cap on
   resolvent width). A first pass over pos x neg only counts, in the manner
   of MiniSat's [merge], and stops at the first resolvent that breaks either
   bound, so a failed try allocates nothing. A successful one writes its
   resolvents into [sc.res] and adds them newest first. The originals move to
   the extension stack, witnessed by their own [v]-literal, so models extend
   and later increments can restore. *)
let try_eliminate (s : Db.t) (occ : occs) sc v =
  live_occs s occ sc v;
  let pos = sc.pos and neg = sc.neg in
  let npos = Db.Iv.size pos and nneg = Db.Iv.size neg in
  if npos > bve_occ_limit && nneg > bve_occ_limit then false
  else begin
    let limit = npos + nneg in
    let count = ref 0 in
    let feasible = ref true in
    let i = ref 0 in
    while !feasible && !i < npos do
      let c = Db.Iv.get pos !i in
      incr i;
      set_marks s sc c v true;
      let cw = Db.clause_size s c - 1 in
      let j = ref 0 in
      while !feasible && !j < nneg do
        let w = resolvent_width s sc cw (Db.Iv.get neg !j) v in
        incr j;
        if w >= 0 then begin
          incr count;
          if !count > limit || w > bve_clause_limit then feasible := false
        end
      done;
      set_marks s sc c v false
    done;
    if not !feasible then false
    else begin
      let r = sc.res and off = sc.res_off in
      Db.Iv.clear r;
      Db.Iv.clear off;
      Db.Iv.push off 0;
      for i = 0 to npos - 1 do
        let c = Db.Iv.get pos i in
        set_marks s sc c v true;
        for j = 0 to nneg - 1 do
          push_resolvent s sc c (Db.Iv.get neg j) v
        done;
        set_marks s sc c v false
      done;
      (* Log and add the resolvents first, then park the originals. *)
      for k = Db.Iv.size off - 2 downto 0 do
        let a = Db.Iv.get off k in
        let n = Db.Iv.get off (k + 1) - a in
        if s.Db.proof <> None then
          Db.log_learned s (List.init n (fun x -> Db.Iv.get r (a + x)));
        if n = 1 then assert_unit s (Db.Iv.get r a)
        else begin
          let cr = Db.alloc_clause_sub s r.Db.Iv.a a n ~learnt:false in
          Db.Iv.push s.Db.clauses cr;
          Db.clause_calc_sig s cr;
          for x = a to a + n - 1 do
            Db.Iv.push occ.(Db.Iv.get r x lsr 1) cr
          done
        end
      done;
      let park side witness =
        for i = 0 to Db.Iv.size side - 1 do
          let cr = Db.Iv.get side i in
          Db.push_ext s ~witness cr;
          Db.mark_dead s cr
        done
      in
      park pos (2 * v);
      park neg ((2 * v) + 1);
      s.Db.elimed.(v) <- true;
      s.Db.n_elim_vars <- s.Db.n_elim_vars + 1;
      true
    end
  end

let bve_pass (s : Db.t) (occ : occs) sc ~deadline =
  (* Cheapest variables first: elimination of low-occurrence variables is the
     most likely to shrink the database and unlock further eliminations. *)
  let nocc = Array.map Db.Iv.size occ in
  let order = Array.init s.Db.nvars (fun v -> v) in
  Array.sort (fun a b -> Int.compare nocc.(a) nocc.(b)) order;
  let changed = ref false in
  Array.iteri
    (fun i v ->
      if i land 63 = 0 then check_continue s ~deadline;
      if
        s.Db.ok
        && (not s.Db.frozen.(v))
        && (not s.Db.elimed.(v))
        && s.Db.assigns.(v) = 0
      then if try_eliminate s occ sc v then changed := true)
    order;
  !changed

(* -- Blocked-clause elimination ------------------------------------------------ *)

(* C is blocked on l when every resolvent of C with a clause containing ¬l is
   tautological; removing C preserves satisfiability and the extension stack
   entry (witness l) repairs any model. Checked against problem clauses only —
   learnts are implied by the input, so the reconstructed model satisfies them
   vacuously. The caller has marked C's literals, so each D costs O(|D|): a
   literal m ≠ ¬l of D with ¬m marked makes the resolvent tautological. *)
let blocked_on (s : Db.t) (occ : occs) sc cr l =
  let nl = l lxor 1 in
  let ws = occ.(l lsr 1) in
  let n = Db.Iv.size ws in
  if n > bce_occ_limit then false
  else begin
    let all_taut = ref true in
    let i = ref 0 in
    while !all_taut && !i < n do
      let d = Db.Iv.get ws !i in
      incr i;
      if d <> cr && not (Db.clause_dead s d) then begin
        let has_nl = ref false and taut = ref false in
        for k = 0 to Db.clause_size s d - 1 do
          let m = Db.clause_lit s d k in
          if m = nl then has_nl := true
          else if marked sc (m lxor 1) then taut := true
        done;
        if !has_nl && not !taut then all_taut := false
      end
    done;
    !all_taut
  end

let bce_pass (s : Db.t) (occ : occs) sc ~deadline =
  let changed = ref false in
  for i = 0 to Db.Iv.size s.Db.clauses - 1 do
    if i land 63 = 0 then check_continue s ~deadline;
    let cr = Db.Iv.get s.Db.clauses i in
    if not (Db.clause_dead s cr) then begin
      set_marks s sc cr (-1) true;
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
          && blocked_on s occ sc cr l
        then begin
          Db.push_ext s ~witness:l cr;
          Db.mark_dead s cr;
          for x = 0 to sz - 1 do
            occ_remove occ (Db.clause_lit s cr x lsr 1) cr
          done;
          s.Db.n_blocked <- s.Db.n_blocked + 1;
          hit := true;
          changed := true
        end
      done;
      set_marks s sc cr (-1) false
    end
  done;
  !changed

(* -- Driver --------------------------------------------------------------------- *)

let round (s : Db.t) sc ~deadline ~bce =
  let changed = ref false in
  (* Root cleanup over problem clauses. *)
  for i = 0 to Db.Iv.size s.Db.clauses - 1 do
    if i land 255 = 0 then check_continue s ~deadline;
    let cr = Db.Iv.get s.Db.clauses i in
    if not (Db.clause_dead s cr) then
      if cleanup_clause s cr then changed := true
  done;
  check_continue s ~deadline;
  let pass name f = if Obs.span ~cat:"sat" name f then changed := true in
  let occ = Obs.span ~cat:"sat" "simplify.occs" (fun () -> build_occs s) in
  pass "simplify.subsume" (fun () -> subsumption_pass s occ sc ~deadline);
  check_continue s ~deadline;
  pass "simplify.bve" (fun () -> bve_pass s occ sc ~deadline);
  check_continue s ~deadline;
  if bce then pass "simplify.bce" (fun () -> bce_pass s occ sc ~deadline);
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
  if s.Db.ok && Db.decision_level s = 0 then
    Obs.span ~cat:"sat" "simplify" @@ fun () ->
    let started = Deadline.wall_now () in
    let obs = Obs.enabled () in
    let b_sub = s.Db.n_subsumed
    and b_str = s.Db.n_strengthened
    and b_elim = s.Db.n_elim_vars
    and b_blk = s.Db.n_blocked
    and b_res = s.Db.n_restored in
    let rounds = ref 0 in
    let sc = create_scratch s in
    (try
       let continue = ref true in
       while !continue && !rounds < max_rounds do
         let changed = round s sc ~deadline ~bce:(!rounds = 0) in
         incr rounds;
         if not changed then continue := false
       done
     with Closed -> ());
    if s.Db.ok then begin
      purge_learnts s;
      (* Clauses were reordered and killed: rebuild watches from scratch and
         re-propagate the whole trail. *)
      Obs.span ~cat:"sat" "simplify.watches" (fun () ->
          if Db.rebuild_watches s then Db.confirm_unsat s
          else if Db.propagate s <> Db.cref_undef then Db.confirm_unsat s);
      Db.maybe_gc s
    end;
    s.Db.dirty <- 0;
    if obs then
      publish s b_sub b_str b_elim b_blk b_res !rounds
        (Deadline.wall_now () -. started)
