(* Data-oriented storage core of the CDCL solver.

   Clauses live in one flat int arena instead of boxed records: a clause at
   cref [c] is

     arena.(c)     header: [size lsl 2 lor (learnt ? 2 : 0) lor (dead ? 1 : 0)]
     arena.(c+1)   learnt: activity as float bits shifted right by one;
                   problem: 62-bit variable signature used by subsumption
     arena.(c+2..) the literals, as packed ints

   Watch lists are flat int vectors of (cref, blocker) pairs, and all per-var
   state is plain mutable arrays indexed by variable, so the propagate /
   analyze hot path allocates nothing and touches contiguous memory. This
   module owns the state and the low-level operations; [Simplifier] implements
   SatELite-style pre/inprocessing on top of it and [Solver] the CDCL search
   and the public API.

   Literals are raw ints here (the [Lit] packing: [2*v] positive, [2*v+1]
   negative); conversion to [Lit.t] happens only at the proof-logging and API
   boundaries. *)

(* -- Growable int vectors ----------------------------------------------- *)

module Iv = struct
  type t = { mutable a : int array; mutable n : int }

  let create ?(cap = 16) () = { a = Array.make (max cap 1) 0; n = 0 }

  let[@inline] size v = v.n

  let[@inline] get v i = Array.unsafe_get v.a i

  let[@inline] set v i x = Array.unsafe_set v.a i x

  let grow v need =
    let cap = max need (2 * Array.length v.a) in
    let a = Array.make cap 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a

  let[@inline] push v x =
    if v.n = Array.length v.a then grow v (v.n + 1);
    Array.unsafe_set v.a v.n x;
    v.n <- v.n + 1

  let[@inline] pop v =
    v.n <- v.n - 1;
    Array.unsafe_get v.a v.n

  let[@inline] clear v = v.n <- 0

  let[@inline] shrink v n = v.n <- n
end

let cref_undef = -1

type t = {
  (* Clause arena *)
  mutable arena : int array;
  mutable arena_top : int;  (* first free word *)
  mutable wasted : int;  (* words buried in dead clauses *)
  clauses : Iv.t;  (* problem crefs *)
  learnts : Iv.t;  (* learnt crefs *)
  mutable watches : Iv.t array;  (* lit -> flat (cref, blocker) pairs *)
  (* Per-variable state *)
  mutable nvars : int;
  mutable assigns : int array;  (* -1 / 0 / 1 *)
  mutable level : int array;
  mutable reason : int array;  (* cref, or cref_undef *)
  mutable var_act : float array;
  mutable polarity : bool array;
  mutable seen : bool array;  (* analysis scratch *)
  mutable frozen : bool array;  (* protected from elimination *)
  mutable elimed : bool array;  (* eliminated by the simplifier *)
  mutable ext_count : int array;  (* live extension entries touching var *)
  mutable heap_index : int array;  (* -1 if absent *)
  heap : Iv.t;
  (* Trail *)
  trail : Iv.t;  (* lits in assignment order *)
  trail_lim : Iv.t;
  mutable qhead : int;
  mutable var_inc : float;
  mutable cla_inc : float;
  (* Model-extension stack: chunks [witness; size; lits...] recording clauses
     removed by variable / blocked-clause elimination. Entries are replayed
     in reverse to extend a model of the simplified formula to a total model
     of the input, and restored into the database when later increments touch
     their variables. *)
  ext_data : Iv.t;
  ext_off : Iv.t;  (* chunk offsets *)
  ext_live : Iv.t;  (* 1 live / 0 dead-or-restored, parallel to ext_off *)
  (* State *)
  mutable ok : bool;
  mutable model : bool array option;
  mutable proof : Proof.t option;
  mutable simp_enabled : bool;
  mutable dirty : int;  (* clauses added since the last simplification *)
  mutable next_simp : int;  (* conflict count scheduling the next inprocess *)
  (* Analysis scratch vectors (reused across conflicts) *)
  tmp_out : Iv.t;
  tmp_keep : Iv.t;
  tmp_clear : Iv.t;
  (* Statistics *)
  mutable n_conflicts : int;
  mutable n_decisions : int;
  mutable n_props : int;
  mutable n_restarts : int;
  mutable n_eliminated : int;
  mutable n_simp_rounds : int;
  mutable n_subsumed : int;
  mutable n_strengthened : int;
  mutable n_elim_vars : int;
  mutable n_blocked : int;
  mutable n_restored : int;
  mutable solve_started : float;
}

let create () =
  let cap = 16 in
  {
    arena = Array.make 1024 0;
    arena_top = 0;
    wasted = 0;
    clauses = Iv.create ();
    learnts = Iv.create ();
    watches = Array.init (2 * cap) (fun _ -> Iv.create ~cap:4 ());
    nvars = 0;
    assigns = Array.make cap 0;
    level = Array.make cap 0;
    reason = Array.make cap cref_undef;
    var_act = Array.make cap 0.;
    polarity = Array.make cap false;
    seen = Array.make cap false;
    frozen = Array.make cap false;
    elimed = Array.make cap false;
    ext_count = Array.make cap 0;
    heap_index = Array.make cap (-1);
    heap = Iv.create ();
    trail = Iv.create ();
    trail_lim = Iv.create ();
    qhead = 0;
    var_inc = 1.;
    cla_inc = 1.;
    ext_data = Iv.create ();
    ext_off = Iv.create ();
    ext_live = Iv.create ();
    ok = true;
    model = None;
    proof = None;
    simp_enabled = false;
    dirty = 0;
    next_simp = 0;
    tmp_out = Iv.create ();
    tmp_keep = Iv.create ();
    tmp_clear = Iv.create ();
    n_conflicts = 0;
    n_decisions = 0;
    n_props = 0;
    n_restarts = 0;
    n_eliminated = 0;
    n_simp_rounds = 0;
    n_subsumed = 0;
    n_strengthened = 0;
    n_elim_vars = 0;
    n_blocked = 0;
    n_restored = 0;
    solve_started = 0.;
  }

(* -- Proof logging -------------------------------------------------------- *)

let[@inline] to_lits il = List.map Lit.of_int il

let log_learned s il =
  match s.proof with None -> () | Some p -> Proof.learned p (to_lits il)

let log_deleted s il =
  match s.proof with None -> () | Some p -> Proof.deleted p (to_lits il)

(* The empty clause follows by unit propagation from the clauses already in
   the trace (the checker's database is always a superset of the live one),
   so logging it as learned is a valid RUP step. *)
let confirm_unsat s =
  if s.ok then begin
    log_learned s [];
    s.ok <- false
  end

(* -- Values and levels ---------------------------------------------------- *)

let[@inline] value_lit s l =
  let a = Array.unsafe_get s.assigns (l lsr 1) in
  if l land 1 = 0 then a else -a

let[@inline] decision_level s = Iv.size s.trail_lim

(* -- Clause arena --------------------------------------------------------- *)

let[@inline] clause_size s cr = Array.unsafe_get s.arena cr lsr 2

let[@inline] clause_learnt s cr = Array.unsafe_get s.arena cr land 2 <> 0

let[@inline] clause_dead s cr = Array.unsafe_get s.arena cr land 1 <> 0

let[@inline] clause_lit s cr i = Array.unsafe_get s.arena (cr + 2 + i)

(* Activities are non-negative floats, so the top bit of their IEEE encoding
   is clear and the remaining 63 bits fit an OCaml int. *)
let[@inline] clause_act s cr =
  Int64.float_of_bits (Int64.shift_left (Int64.of_int s.arena.(cr + 1)) 1)

let[@inline] set_clause_act s cr f =
  s.arena.(cr + 1) <-
    Int64.to_int (Int64.shift_right_logical (Int64.bits_of_float f) 1)

let[@inline] clause_sig s cr = s.arena.(cr + 1)

let clause_calc_sig s cr =
  let g = ref 0 in
  for i = 0 to clause_size s cr - 1 do
    g := !g lor (1 lsl (clause_lit s cr i lsr 1 mod 62))
  done;
  s.arena.(cr + 1) <- !g

let clause_lits_list s cr =
  let rec go i acc = if i < 0 then acc else go (i - 1) (clause_lit s cr i :: acc) in
  go (clause_size s cr - 1) []

let ensure_arena s need =
  if s.arena_top + need > Array.length s.arena then begin
    let cap = max (s.arena_top + need) (2 * Array.length s.arena) in
    let a = Array.make cap 0 in
    Array.blit s.arena 0 a 0 s.arena_top;
    s.arena <- a
  end

(* Allocates the clause [a.(off) .. a.(off + sz - 1)]. *)
let alloc_clause_sub s (a : int array) off sz ~learnt =
  ensure_arena s (sz + 2);
  let cr = s.arena_top in
  s.arena.(cr) <- (sz lsl 2) lor if learnt then 2 else 0;
  s.arena.(cr + 1) <- 0;
  Array.blit a off s.arena (cr + 2) sz;
  s.arena_top <- cr + sz + 2;
  cr

let alloc_clause s (lits : int array) ~learnt =
  alloc_clause_sub s lits 0 (Array.length lits) ~learnt

let mark_dead s cr =
  let hd = s.arena.(cr) in
  if hd land 1 = 0 then begin
    s.arena.(cr) <- hd lor 1;
    s.wasted <- s.wasted + (hd lsr 2) + 2
  end

(* In-place removal of one literal (simplifier strengthening). The orphaned
   trailing word is reclaimed at the next arena collection. *)
let clause_remove_lit s cr l =
  let sz = clause_size s cr in
  let i = ref 0 in
  while clause_lit s cr !i <> l do incr i done;
  for k = !i to sz - 2 do
    s.arena.(cr + 2 + k) <- s.arena.(cr + 2 + k + 1)
  done;
  s.arena.(cr) <- (s.arena.(cr) land 3) lor ((sz - 1) lsl 2);
  s.wasted <- s.wasted + 1

(* -- Variable order heap (max-heap on activity) --------------------------- *)

let[@inline] heap_lt s v w =
  Array.unsafe_get s.var_act v > Array.unsafe_get s.var_act w

let heap_percolate_up s i =
  let x = Iv.get s.heap i in
  let i = ref i in
  let continue = ref true in
  while !continue && !i > 0 do
    let p = (!i - 1) / 2 in
    let px = Iv.get s.heap p in
    if heap_lt s x px then begin
      Iv.set s.heap !i px;
      s.heap_index.(px) <- !i;
      i := p
    end
    else continue := false
  done;
  Iv.set s.heap !i x;
  s.heap_index.(x) <- !i

let heap_percolate_down s i =
  let x = Iv.get s.heap i in
  let sz = Iv.size s.heap in
  let i = ref i in
  let continue = ref true in
  while !continue && (2 * !i) + 1 < sz do
    let l = (2 * !i) + 1 in
    let r = l + 1 in
    let child =
      if r < sz && heap_lt s (Iv.get s.heap r) (Iv.get s.heap l) then r else l
    in
    let cx = Iv.get s.heap child in
    if heap_lt s cx x then begin
      Iv.set s.heap !i cx;
      s.heap_index.(cx) <- !i;
      i := child
    end
    else continue := false
  done;
  Iv.set s.heap !i x;
  s.heap_index.(x) <- !i

let[@inline] heap_in s v = s.heap_index.(v) >= 0

let heap_insert s v =
  if not (heap_in s v) then begin
    Iv.push s.heap v;
    s.heap_index.(v) <- Iv.size s.heap - 1;
    heap_percolate_up s (Iv.size s.heap - 1)
  end

let heap_pop s =
  let x = Iv.get s.heap 0 in
  let last = Iv.pop s.heap in
  s.heap_index.(x) <- -1;
  if Iv.size s.heap > 0 then begin
    Iv.set s.heap 0 last;
    s.heap_index.(last) <- 0;
    heap_percolate_down s 0
  end;
  x

let[@inline] heap_bump s v =
  if heap_in s v then heap_percolate_up s s.heap_index.(v)

(* -- Activities ------------------------------------------------------------ *)

let var_decay = 1. /. 0.95

let cla_decay = 1. /. 0.999

let var_bump s v =
  s.var_act.(v) <- s.var_act.(v) +. s.var_inc;
  if s.var_act.(v) > 1e100 then begin
    for u = 0 to s.nvars - 1 do
      s.var_act.(u) <- s.var_act.(u) *. 1e-100
    done;
    s.var_inc <- s.var_inc *. 1e-100
  end;
  heap_bump s v

let var_decay_activity s = s.var_inc <- s.var_inc *. var_decay

let cla_bump s cr =
  let a = clause_act s cr +. s.cla_inc in
  set_clause_act s cr a;
  if a > 1e20 then begin
    for i = 0 to Iv.size s.learnts - 1 do
      let c = Iv.get s.learnts i in
      set_clause_act s c (clause_act s c *. 1e-20)
    done;
    s.cla_inc <- s.cla_inc *. 1e-20
  end

let cla_decay_activity s = s.cla_inc <- s.cla_inc *. cla_decay

(* -- Variables ------------------------------------------------------------- *)

let grow_vars s =
  let old = Array.length s.assigns in
  let cap = 2 * old in
  let gi a d =
    let b = Array.make cap d in
    Array.blit a 0 b 0 old;
    b
  in
  s.assigns <- gi s.assigns 0;
  s.level <- gi s.level 0;
  s.reason <- gi s.reason cref_undef;
  s.heap_index <- gi s.heap_index (-1);
  s.ext_count <- gi s.ext_count 0;
  let gf a =
    let b = Array.make cap 0. in
    Array.blit a 0 b 0 old;
    b
  in
  s.var_act <- gf s.var_act;
  let gb a =
    let b = Array.make cap false in
    Array.blit a 0 b 0 old;
    b
  in
  s.polarity <- gb s.polarity;
  s.seen <- gb s.seen;
  s.frozen <- gb s.frozen;
  s.elimed <- gb s.elimed;
  let w = s.watches in
  s.watches <-
    Array.init (2 * cap) (fun i ->
        if i < Array.length w then w.(i) else Iv.create ~cap:4 ())

let new_var s =
  let v = s.nvars in
  if v = Array.length s.assigns then grow_vars s;
  s.nvars <- v + 1;
  heap_insert s v;
  v

(* -- Trail ------------------------------------------------------------------ *)

let[@inline] unchecked_enqueue s p r =
  let v = p lsr 1 in
  Array.unsafe_set s.assigns v (if p land 1 = 0 then 1 else -1);
  Array.unsafe_set s.level v (Iv.size s.trail_lim);
  Array.unsafe_set s.reason v r;
  Iv.push s.trail p

let cancel_until s lvl =
  if decision_level s > lvl then begin
    let bound = Iv.get s.trail_lim lvl in
    for i = Iv.size s.trail - 1 downto bound do
      let p = Iv.get s.trail i in
      let v = p lsr 1 in
      s.assigns.(v) <- 0;
      s.polarity.(v) <- p land 1 = 0;
      s.reason.(v) <- cref_undef;
      heap_insert s v
    done;
    Iv.shrink s.trail bound;
    Iv.shrink s.trail_lim lvl;
    s.qhead <- Iv.size s.trail
  end

(* -- Watches ----------------------------------------------------------------- *)

(* A clause watching literal [l] is registered under index [neg l]: propagating
   [p] visits exactly the clauses in which [neg p] is watched. Each entry
   carries a blocker literal — some other literal of the clause — whose truth
   lets propagation skip the clause without touching the arena. *)

let attach s cr =
  let l0 = s.arena.(cr + 2) and l1 = s.arena.(cr + 3) in
  let w0 = s.watches.(l0 lxor 1) in
  Iv.push w0 cr;
  Iv.push w0 l1;
  let w1 = s.watches.(l1 lxor 1) in
  Iv.push w1 cr;
  Iv.push w1 l0

let watch_remove s l cr =
  let ws = s.watches.(l) in
  let n = Iv.size ws in
  let i = ref 0 in
  while !i < n && Iv.get ws !i <> cr do
    i := !i + 2
  done;
  if !i < n then begin
    Iv.set ws !i (Iv.get ws (n - 2));
    Iv.set ws (!i + 1) (Iv.get ws (n - 1));
    Iv.shrink ws (n - 2)
  end

let detach s cr =
  watch_remove s (s.arena.(cr + 2) lxor 1) cr;
  watch_remove s (s.arena.(cr + 3) lxor 1) cr

(* Attach at root level when some literals may already be assigned: orders the
   least-falsified literals into the watch slots so the two-watch invariant
   holds, and reports whether the clause is currently unit or false. *)
let attach_careful s cr =
  let a = s.arena in
  let base = cr + 2 in
  let sz = a.(cr) lsr 2 in
  let swap i j =
    let t = a.(base + i) in
    a.(base + i) <- a.(base + j);
    a.(base + j) <- t
  in
  let find_nonfalse from_ =
    let k = ref from_ in
    while !k < sz && value_lit s a.(base + !k) = -1 do
      incr k
    done;
    !k
  in
  let k0 = find_nonfalse 0 in
  if k0 < sz && k0 <> 0 then swap 0 k0;
  if k0 < sz then begin
    let k1 = find_nonfalse 1 in
    if k1 < sz && k1 <> 1 then swap 1 k1
  end;
  attach s cr;
  let v0 = value_lit s a.(base) in
  if v0 = -1 then `Conflict
  else if v0 = 0 && value_lit s a.(base + 1) = -1 then `Unit a.(base)
  else `Ok

(* -- Propagation -------------------------------------------------------------- *)

(* Returns the conflicting cref or [cref_undef]. *)
let propagate s =
  let confl = ref cref_undef in
  while !confl = cref_undef && s.qhead < Iv.size s.trail do
    let p = Iv.get s.trail s.qhead in
    s.qhead <- s.qhead + 1;
    s.n_props <- s.n_props + 1;
    let false_lit = p lxor 1 in
    let ws = Array.unsafe_get s.watches p in
    let i = ref 0 in
    let j = ref 0 in
    let n = Iv.size ws in
    while !i < n do
      let cr = Iv.get ws !i in
      let blk = Iv.get ws (!i + 1) in
      i := !i + 2;
      if value_lit s blk = 1 then begin
        (* Blocker true: clause satisfied, watch kept, arena untouched. *)
        Iv.set ws !j cr;
        Iv.set ws (!j + 1) blk;
        j := !j + 2
      end
      else begin
        let arena = s.arena in
        let hd = Array.unsafe_get arena cr in
        if hd land 1 = 1 then () (* dead (simplifier): drop the watch *)
        else begin
          let base = cr + 2 in
          let sz = hd lsr 2 in
          if Array.unsafe_get arena base = false_lit then begin
            Array.unsafe_set arena base (Array.unsafe_get arena (base + 1));
            Array.unsafe_set arena (base + 1) false_lit
          end;
          let first = Array.unsafe_get arena base in
          if first <> blk && value_lit s first = 1 then begin
            Iv.set ws !j cr;
            Iv.set ws (!j + 1) first;
            j := !j + 2
          end
          else begin
            (* Look for a new literal to watch. *)
            let k = ref 2 in
            while
              !k < sz && value_lit s (Array.unsafe_get arena (base + !k)) = -1
            do
              incr k
            done;
            if !k < sz then begin
              let nw = Array.unsafe_get arena (base + !k) in
              Array.unsafe_set arena (base + 1) nw;
              Array.unsafe_set arena (base + !k) false_lit;
              let ws' = Array.unsafe_get s.watches (nw lxor 1) in
              Iv.push ws' cr;
              Iv.push ws' first
              (* watch moved: not kept in this list *)
            end
            else if value_lit s first = -1 then begin
              (* Conflict: keep remaining watches and stop. *)
              confl := cr;
              s.qhead <- Iv.size s.trail;
              while !i < n do
                Iv.set ws !j (Iv.get ws !i);
                incr j;
                incr i
              done;
              Iv.set ws !j cr;
              Iv.set ws (!j + 1) first;
              j := !j + 2
            end
            else begin
              unchecked_enqueue s first cr;
              Iv.set ws !j cr;
              Iv.set ws (!j + 1) first;
              j := !j + 2
            end
          end
        end
      end
    done;
    Iv.shrink ws !j
  done;
  !confl

(* Rebuild every watch list from the live clauses (after the simplifier has
   reordered or killed clauses) and queue the whole trail for re-propagation.
   Also compacts the cref lists. Returns [true] when some live clause is
   already false under the root assignment. *)
let rebuild_watches s =
  for l = 0 to (2 * s.nvars) - 1 do
    Iv.clear s.watches.(l)
  done;
  let confl = ref false in
  let one iv =
    let j = ref 0 in
    for i = 0 to Iv.size iv - 1 do
      let cr = Iv.get iv i in
      if not (clause_dead s cr) then begin
        Iv.set iv !j cr;
        incr j;
        match attach_careful s cr with
        | `Conflict -> confl := true
        | `Unit l -> if value_lit s l = 0 then unchecked_enqueue s l cr
        | `Ok -> ()
      end
    done;
    Iv.shrink iv !j
  in
  one s.clauses;
  one s.learnts;
  s.qhead <- 0;
  !confl

(* -- Arena garbage collection --------------------------------------------------- *)

(* Compacts live clauses into a fresh arena. Relocation preserves literal
   order, so existing watch slots stay valid and plain re-attachment keeps the
   two-watch invariant; reasons are remapped through forwarding headers.
   Reasons pointing at dead clauses can only belong to root-level assignments
   (conflict analysis never dereferences those) and are dropped. The new
   arena holds the live words and half as much again: sizing it like the old
   one would zero-fill, and fault in, every word the dead clauses held. *)
let gc_arena s =
  let old = s.arena in
  let live = s.arena_top - s.wasted in
  let na = Array.make (max 1024 (live + (live / 2))) 0 in
  let top = ref 0 in
  let move cr =
    let hd = old.(cr) in
    let sz = hd lsr 2 in
    let nc = !top in
    na.(nc) <- hd;
    na.(nc + 1) <- old.(cr + 1);
    Array.blit old (cr + 2) na (nc + 2) sz;
    top := nc + sz + 2;
    old.(cr) <- lnot nc;
    nc
  in
  let compact iv =
    let j = ref 0 in
    for i = 0 to Iv.size iv - 1 do
      let cr = Iv.get iv i in
      if old.(cr) >= 0 && old.(cr) land 1 = 0 then begin
        Iv.set iv !j (move cr);
        incr j
      end
    done;
    Iv.shrink iv !j
  in
  compact s.clauses;
  compact s.learnts;
  for v = 0 to s.nvars - 1 do
    let r = s.reason.(v) in
    if r <> cref_undef then
      if old.(r) < 0 then s.reason.(v) <- lnot old.(r)
      else s.reason.(v) <- cref_undef
  done;
  s.arena <- na;
  s.arena_top <- !top;
  s.wasted <- 0;
  for l = 0 to (2 * s.nvars) - 1 do
    Iv.clear s.watches.(l)
  done;
  let att iv =
    for i = 0 to Iv.size iv - 1 do
      attach s (Iv.get iv i)
    done
  in
  att s.clauses;
  att s.learnts

let maybe_gc s = if s.wasted > 0 && s.wasted * 3 >= s.arena_top then gc_arena s

(* -- Model-extension stack and restoration ---------------------------------------- *)

(* Parks clause [cr] on the stack, copying its literals from the arena. *)
let push_ext s ~witness cr =
  let sz = clause_size s cr in
  Iv.push s.ext_off (Iv.size s.ext_data);
  Iv.push s.ext_live 1;
  Iv.push s.ext_data witness;
  Iv.push s.ext_data sz;
  for i = 0 to sz - 1 do
    let l = clause_lit s cr i in
    Iv.push s.ext_data l;
    s.ext_count.(l lsr 1) <- s.ext_count.(l lsr 1) + 1
  done

(* Extends a model of the live clauses to a total model of the input: replay
   entries newest-first; whenever the recorded clause is unsatisfied, flipping
   its witness variable satisfies it without breaking any clause fixed so far
   (the defining property of BVE groups and blocked clauses). *)
let extend_model s (m : bool array) =
  for j = Iv.size s.ext_off - 1 downto 0 do
    if Iv.get s.ext_live j = 1 then begin
      let off = Iv.get s.ext_off j in
      let witness = Iv.get s.ext_data off in
      let sz = Iv.get s.ext_data (off + 1) in
      let sat = ref false in
      for k = 0 to sz - 1 do
        let l = Iv.get s.ext_data (off + 2 + k) in
        if (if l land 1 = 0 then m.(l lsr 1) else not m.(l lsr 1)) then
          sat := true
      done;
      if not !sat then m.(witness lsr 1) <- witness land 1 = 0
    end
  done

(* Re-adds one stack entry to the database: the clause goes back in (it was
   never deleted from the proof checker's view, so no proof step is needed),
   its eliminated variables come back to life, and every variable involved is
   frozen so the entry cannot thrash in and out. *)
let restore_entry s j =
  Iv.set s.ext_live j 0;
  let off = Iv.get s.ext_off j in
  let witness = Iv.get s.ext_data off in
  let sz = Iv.get s.ext_data (off + 1) in
  let lits = Array.make sz 0 in
  for k = 0 to sz - 1 do
    let l = Iv.get s.ext_data (off + 2 + k) in
    lits.(k) <- l;
    let v = l lsr 1 in
    s.ext_count.(v) <- s.ext_count.(v) - 1;
    if s.elimed.(v) then begin
      s.elimed.(v) <- false;
      s.frozen.(v) <- true;
      if s.assigns.(v) = 0 then heap_insert s v
    end
  done;
  s.frozen.(witness lsr 1) <- true;
  s.n_restored <- s.n_restored + 1;
  let cr = alloc_clause s lits ~learnt:false in
  Iv.push s.clauses cr;
  match attach_careful s cr with
  | `Conflict -> confirm_unsat s
  | `Unit l -> if value_lit s l = 0 then unchecked_enqueue s l cr
  | `Ok -> ()

(* Incremental soundness: when a new clause mentions a variable
   that was eliminated, or that occurs in a clause parked on the extension
   stack, the affected suffix of the stack is restored (every live entry from
   the newest down to the earliest touched one). Restoring a whole suffix
   keeps the remaining prefix a valid reconstruction sequence regardless of
   how entries interleave. Runs at decision level 0. *)
let restore_touching s (ilits : int array) =
  let touched =
    Array.exists
      (fun l ->
        let v = l lsr 1 in
        v < s.nvars && (s.elimed.(v) || s.ext_count.(v) > 0))
      ilits
  in
  if touched then begin
    let vars = Array.map (fun l -> l lsr 1) ilits in
    let entry_touches j =
      let off = Iv.get s.ext_off j in
      let sz = Iv.get s.ext_data (off + 1) in
      let rec go k =
        k < sz
        && (Array.mem (Iv.get s.ext_data (off + 2 + k) lsr 1) vars
           || go (k + 1))
      in
      go 0
    in
    let i0 = ref (-1) in
    (let j = ref 0 in
     let n = Iv.size s.ext_off in
     while !i0 < 0 && !j < n do
       if Iv.get s.ext_live !j = 1 && entry_touches !j then i0 := !j;
       incr j
     done);
    if !i0 >= 0 then
      for j = Iv.size s.ext_off - 1 downto !i0 do
        if Iv.get s.ext_live j = 1 then restore_entry s j
      done;
    (* Variables eliminated with no clause occurrences at all leave no stack
       entry; just revive them. *)
    Array.iter
      (fun v ->
        if v < s.nvars && s.elimed.(v) then begin
          s.elimed.(v) <- false;
          s.frozen.(v) <- true;
          if s.assigns.(v) = 0 then heap_insert s v
        end)
      vars
  end

(* -- Clause addition (public hygiene path) -------------------------------------------- *)

(* Insertion sort of [a.(lo) .. a.(hi - 1)], for short clauses. *)
let sort_range (a : int array) lo hi =
  for i = lo + 1 to hi - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= lo && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* Sorts [a] in place and drops repeated literals: returns [a] itself, or a
   shorter copy of its prefix when it had repeats. Clauses are mostly short,
   so short ones take an insertion sort. *)
let sort_dedupe (a : int array) =
  let n = Array.length a in
  if n <= 16 then sort_range a 0 n else Array.sort Int.compare a;
  let m = ref (min n 1) in
  for i = 1 to n - 1 do
    if a.(i) <> a.(!m - 1) then begin
      a.(!m) <- a.(i);
      incr m
    end
  done;
  if !m = n then a else Array.sub a 0 !m

let lits_of_array a = Array.fold_right (fun l acc -> Lit.of_int l :: acc) a []

let add_clause s (lits : int array) =
  if s.ok then begin
    cancel_until s 0;
    s.model <- None;
    let il = sort_dedupe lits in
    (match s.proof with
    | None -> ()
    | Some p -> Proof.input p (lits_of_array il));
    (* Only the simplifier eliminates variables or parks clauses. *)
    if s.n_elim_vars > 0 || Iv.size s.ext_off > 0 then restore_touching s il;
    if s.ok then begin
      (* After sorting, complementary literals [2v] and [2v+1] are
         neighbours. A literal true at the root also makes the clause
         redundant. *)
      let taut = ref false and n_false = ref 0 in
      Array.iteri
        (fun i l ->
          if i > 0 && il.(i - 1) = l lxor 1 then taut := true;
          let v = value_lit s l in
          if v <> 0 && s.level.(l lsr 1) = 0 then
            if v = 1 then taut := true else incr n_false)
        il;
      if !taut then s.n_eliminated <- s.n_eliminated + 1
      else begin
        let live =
          if !n_false = 0 then il
          else begin
            let live = Array.make (Array.length il - !n_false) 0 in
            let k = ref 0 in
            Array.iter
              (fun l ->
                if value_lit s l <> -1 || s.level.(l lsr 1) <> 0 then begin
                  live.(!k) <- l;
                  incr k
                end)
              il;
            (* Removing root-falsified literals is itself a RUP inference. *)
            (match s.proof with
            | None -> ()
            | Some p -> Proof.learned p (lits_of_array live));
            live
          end
        in
        match Array.length live with
        | 0 -> s.ok <- false
        | 1 ->
          let l = live.(0) in
          if value_lit s l = -1 then begin
            log_learned s [];
            s.ok <- false
          end
          else if value_lit s l = 0 then begin
            unchecked_enqueue s l cref_undef;
            s.dirty <- s.dirty + 1
          end
        | _ ->
          let cr = alloc_clause s live ~learnt:false in
          Iv.push s.clauses cr;
          attach s cr;
          s.dirty <- s.dirty + 1
      end
    end
  end
  else if s.n_elim_vars > 0 || Iv.size s.ext_off > 0 then begin
    (* Already unsatisfiable, so the clause itself is moot; still, no
       variable it names is left eliminated. *)
    cancel_until s 0;
    restore_touching s lits
  end
