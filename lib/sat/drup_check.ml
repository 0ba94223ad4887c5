(* Backward, core-only DRUP checking (Goldberg & Novikov, DATE 2003, for RUP;
   the backward mode of DRAT-trim, Wetzler, Heule & Hunt, SAT 2014).

   The forward pass adds every clause of the trace, unchecked, and propagates
   at top level until the first conflict.  The backward pass marks that
   conflict's implication cone as core, then walks the steps in reverse,
   restoring the database and trail each step saw, and RUP-checks exactly the
   core lemmas; each check marks the reasons its own conflict used.

   A self-contained unit-propagation engine over int literals, sharing no
   code with the CDCL solver.  Clauses live in one int arena, sized from the
   trace; a literal's watch list holds the clauses watching it.  Value of a
   literal: 1 true, -1 false, 0 unassigned. *)

module Metrics = Sepsat_obs.Metrics

type result = Certified | Incomplete | Bogus of string

(* A watch list holds (clause id, blocker) pairs flat in [a.(0 .. n-1)]: when
   the blocker, one of the clause's literals, is true the clause is satisfied
   and is not looked at. *)
type wlist = { mutable a : int array; mutable n : int }

let push v c blocker =
  if v.n + 2 > Array.length v.a then begin
    let a = Array.make (max 8 (2 * v.n)) 0 in
    Array.blit v.a 0 a 0 v.n;
    v.a <- a
  end;
  v.a.(v.n) <- c;
  v.a.(v.n + 1) <- blocker;
  v.n <- v.n + 2

(* Swap-remove clause [c]'s watch; watch-list order is irrelevant. *)
let remove v c =
  let i = ref 0 in
  while v.a.(!i) <> c do
    i := !i + 2
  done;
  v.n <- v.n - 2;
  v.a.(!i) <- v.a.(v.n);
  v.a.(!i + 1) <- v.a.(v.n + 1)

(* Deletion index: a clause's sorted literals -> its id.  [add] shadows an
   equal clause's binding and [remove] restores it, so deleting one of two
   copies leaves the other findable. *)
module Key = Hashtbl.Make (struct
  type t = int array

  let equal (a : t) (b : t) =
    let n = Array.length a in
    n = Array.length b
    &&
    let i = ref 0 in
    while !i < n && a.(!i) = b.(!i) do
      incr i
    done;
    !i = n

  let hash (a : t) =
    let h = ref (Array.length a) in
    for i = 0 to Array.length a - 1 do
      h := (!h * 31) + a.(i)
    done;
    !h land max_int
end)

type engine = {
  lits : int array;  (* clause arena; watched literals at offsets 0 and 1 *)
  mutable nlits : int;
  start : int array;  (* per clause *)
  size : int array;  (* per clause *)
  mutable nclauses : int;
  core : Bytes.t;  (* per clause *)
  watches : wlist array;  (* per literal *)
  vals : int array;  (* per literal *)
  stamp : int array;  (* per literal, scratch for [read] *)
  mutable stamp_n : int;
  reason : int array;  (* per variable: clause id, -1 for an assumption *)
  tpos : int array;  (* per variable: trail position *)
  seen : Bytes.t;  (* per variable, scratch for [analyze] *)
  trail : int array;
  mutable trail_n : int;
  mutable qhead : int;
  scratch : int array;  (* a deleted clause's literals *)
  mutable index : int Key.t option;  (* built at the first non-unit deletion *)
}

let create ~nvars ~nclauses ~nlits ~width =
  {
    lits = Array.make nlits 0;
    nlits = 0;
    start = Array.make nclauses 0;
    size = Array.make nclauses 0;
    nclauses = 0;
    core = Bytes.make nclauses '\000';
    watches = Array.init (2 * nvars) (fun _ -> { a = [||]; n = 0 });
    vals = Array.make (2 * nvars) 0;
    stamp = Array.make (2 * nvars) 0;
    stamp_n = 0;
    reason = Array.make nvars (-1);
    tpos = Array.make nvars 0;
    seen = Bytes.make nvars '\000';
    trail = Array.make nvars 0;
    trail_n = 0;
    qhead = 0;
    scratch = Array.make width 0;
    index = None;
  }

let assign e l reason =
  let v = l lsr 1 in
  e.vals.(l) <- 1;
  e.vals.(l lxor 1) <- -1;
  e.reason.(v) <- reason;
  e.tpos.(v) <- e.trail_n;
  e.trail.(e.trail_n) <- l;
  e.trail_n <- e.trail_n + 1

let rollback e mark =
  for k = e.trail_n - 1 downto mark do
    let l = e.trail.(k) in
    e.vals.(l) <- 0;
    e.vals.(l lxor 1) <- 0
  done;
  e.trail_n <- mark;
  e.qhead <- mark

(* Propagate the trail from [qhead]; the conflicting clause, or -1. *)
let propagate e =
  let lits = e.lits in
  let conflict = ref (-1) in
  while !conflict < 0 && e.qhead < e.trail_n do
    let fl = e.trail.(e.qhead) lxor 1 in
    e.qhead <- e.qhead + 1;
    let ws = e.watches.(fl) in
    let i = ref 0 and j = ref 0 in
    let n = ws.n in
    let keep c blocker =
      ws.a.(!j) <- c;
      ws.a.(!j + 1) <- blocker;
      j := !j + 2
    in
    while !i < n do
      let c = ws.a.(!i) and blocker = ws.a.(!i + 1) in
      i := !i + 2;
      if e.vals.(blocker) = 1 then keep c blocker
      else begin
        let s = e.start.(c) in
        if lits.(s) = fl then begin
          lits.(s) <- lits.(s + 1);
          lits.(s + 1) <- fl
        end;
        let first = lits.(s) in
        if e.vals.(first) = 1 then keep c first
        else begin
          let stop = s + e.size.(c) in
          let k = ref (s + 2) in
          while !k < stop && e.vals.(lits.(!k)) = -1 do
            incr k
          done;
          if !k < stop then begin
            lits.(s + 1) <- lits.(!k);
            lits.(!k) <- fl;
            push e.watches.(lits.(s + 1)) c first
          end
          else begin
            keep c first;
            if e.vals.(first) = 0 then assign e first c
            else begin
              conflict := c;
              while !i < n do
                keep ws.a.(!i) ws.a.(!i + 1);
                i := !i + 2
              done
            end
          end
        end
      end
    done;
    ws.n <- !j
  done;
  !conflict

(* Watch the two best literals of clause [c]: non-false ones first, else the
   most recently assigned false ones.  Rolling the trail back then never
   leaves a watch false while the other is unassigned, as long as the trail
   stays a propagation fixpoint of a database holding [c]. *)
let attach e c =
  let lits = e.lits and s = e.start.(c) and len = e.size.(c) in
  let rank l = if e.vals.(l) >= 0 then max_int else e.tpos.(l lsr 1) in
  for p = s to s + 1 do
    let best = ref p in
    let k = ref p in
    while !k < s + len && rank lits.(!best) < max_int do
      if rank lits.(!k) > rank lits.(!best) then best := !k;
      incr k
    done;
    let t = lits.(p) in
    lits.(p) <- lits.(!best);
    lits.(!best) <- t
  done;
  push e.watches.(lits.(s)) c lits.(s + 1);
  push e.watches.(lits.(s + 1)) c lits.(s)

let detach e c =
  if e.size.(c) >= 2 then begin
    let s = e.start.(c) in
    remove e.watches.(e.lits.(s)) c;
    remove e.watches.(e.lits.(s + 1)) c
  end

(* A sorted copy of the [len] literals at [a.(off)]; most clauses are short
   enough for insertion sort. *)
let sorted a off len =
  let k = Array.sub a off len in
  if len > 16 then Array.sort Int.compare k
  else
    for i = 1 to len - 1 do
      let x = k.(i) in
      let j = ref (i - 1) in
      while !j >= 0 && k.(!j) > x do
        k.(!j + 1) <- k.(!j);
        decr j
      done;
      k.(!j + 1) <- x
    done;
  k

(* Write a step's literals, without duplicates, to [into] from [at]; their
   number, or -1 for a tautology. *)
let read e (c : Lit.t list) into at =
  e.stamp_n <- e.stamp_n + 1;
  let n = ref 0 and taut = ref false in
  List.iter
    (fun (l : Lit.t) ->
      let l = (l :> int) in
      if e.stamp.(l lxor 1) = e.stamp_n then taut := true
      else if e.stamp.(l) <> e.stamp_n then begin
        e.stamp.(l) <- e.stamp_n;
        into.(at + !n) <- l;
        incr n
      end)
    c;
  if !taut then -1 else !n

(* Add a step's clause unchecked; its id (-1 for a tautology), and the
   conflict it causes or -1. *)
let add e lits =
  let len = read e lits e.lits e.nlits in
  if len < 0 then (-1, -1)
  else begin
    let c = e.nclauses and s = e.nlits in
    e.start.(c) <- s;
    e.size.(c) <- len;
    e.nclauses <- c + 1;
    e.nlits <- s + len;
    (match e.index with
    | Some idx when len >= 2 -> Key.add idx (sorted e.lits s len) c
    | Some _ | None -> ());
    let conflict =
      if len = 0 then c
      else if len = 1 then
        match e.vals.(e.lits.(s)) with
        | 1 -> -1
        | -1 -> c
        | _ ->
          assign e e.lits.(s) c;
          -1
      else begin
        attach e c;
        let w0 = e.lits.(s) and w1 = e.lits.(s + 1) in
        if e.vals.(w0) = -1 then c
        else begin
          if e.vals.(w0) = 0 && e.vals.(w1) = -1 then assign e w0 c;
          -1
        end
      end
    in
    (c, if conflict >= 0 then conflict else propagate e)
  end

(* Unit, tautological and phantom deletions are ignored, and a deleted reason
   keeps its literal assigned; the deleted clause's id, or -1. *)
let delete e lits =
  let len = read e lits e.scratch 0 in
  if len < 2 then -1
  else begin
    let idx =
      match e.index with
      | Some idx -> idx
      | None ->
        let idx = Key.create (2 * e.nclauses) in
        for c = 0 to e.nclauses - 1 do
          if e.size.(c) >= 2 then
            Key.add idx (sorted e.lits e.start.(c) e.size.(c)) c
        done;
        e.index <- Some idx;
        idx
    in
    let key = sorted e.scratch 0 len in
    match Key.find_opt idx key with
    | Some c ->
      Key.remove idx key;
      detach e c;
      c
    | None -> -1
  end

(* Mark core every clause the implication of [start_var]'s literal, or the
   falsification of clause [confl], rests on. *)
let analyze e ~confl ~start_var =
  let count = ref 0 in
  let see v =
    if Bytes.get e.seen v = '\000' then begin
      Bytes.set e.seen v '\001';
      incr count
    end
  in
  (* Every literal of [c] other than [skip]'s is false and assigned earlier
     on the trail. *)
  let mark c ~skip =
    Bytes.set e.core c '\001';
    let s = e.start.(c) in
    for k = s to s + e.size.(c) - 1 do
      let v = e.lits.(k) lsr 1 in
      if v <> skip then see v
    done
  in
  if confl >= 0 then mark confl ~skip:(-1) else see start_var;
  let pos = ref (e.trail_n - 1) in
  while !count > 0 do
    let v = e.trail.(!pos) lsr 1 in
    if Bytes.get e.seen v = '\001' then begin
      Bytes.set e.seen v '\000';
      decr count;
      if e.reason.(v) >= 0 then mark e.reason.(v) ~skip:v
    end;
    decr pos
  done

(* RUP check of clause [c] against the current database and trail: asserting
   its negation and propagating must conflict.  On success the clauses the
   conflict used are marked core. *)
let rup e c =
  let mark = e.trail_n in
  let s = e.start.(c) in
  let implied = ref (-1) in
  for k = s to s + e.size.(c) - 1 do
    let l = e.lits.(k) in
    if !implied < 0 then
      match e.vals.(l) with
      | 1 -> implied := l lsr 1
      | 0 -> assign e (l lxor 1) (-1)
      | _ -> ()
  done;
  let ok =
    if !implied >= 0 then begin
      analyze e ~confl:(-1) ~start_var:!implied;
      true
    end
    else
      let confl = propagate e in
      if confl >= 0 then analyze e ~confl ~start_var:(-1);
      confl >= 0
  in
  rollback e mark;
  ok

let m_lemmas = Metrics.handle Metrics.counter "drup.lemmas"

let m_checked = Metrics.handle Metrics.counter "drup.core_checked"

let not_rup i c =
  Bogus
    (Format.asprintf "step %d: clause {%a} is not RUP" (i + 1)
       (Format.pp_print_list
          ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
          Lit.pp)
       c)

let check step_list =
  let steps = Array.of_list step_list in
  let n = Array.length steps in
  let max_var = ref 0 and nlits = ref 0 and width = ref 0 and lemmas = ref 0 in
  Array.iter
    (fun step ->
      let (Proof.Input c | Proof.Learned c | Proof.Deleted c) = step in
      List.iter (fun l -> max_var := max !max_var (Lit.var l)) c;
      match step with
      | Proof.Input c -> nlits := !nlits + List.length c
      | Proof.Learned c ->
        incr lemmas;
        nlits := !nlits + List.length c
      | Proof.Deleted c -> width := max !width (List.length c))
    steps;
  Metrics.add (m_lemmas ()) !lemmas;
  let e =
    create ~nvars:(!max_var + 1) ~nclauses:n ~nlits:!nlits ~width:!width
  in
  let step_cid = Array.make n (-1) in
  let step_trail = Array.make n 0 in
  (* Forward: the first step whose addition yields a top-level conflict. *)
  let rec forward i =
    if i = n then Error Incomplete
    else begin
      step_trail.(i) <- e.trail_n;
      match steps.(i) with
      | Proof.Learned [] -> Error (not_rup i [])
      | Proof.Deleted c ->
        step_cid.(i) <- delete e c;
        forward (i + 1)
      | Proof.Input c | Proof.Learned c ->
        let cid, confl = add e c in
        step_cid.(i) <- cid;
        if confl >= 0 then Ok (i, confl) else forward (i + 1)
    end
  in
  (* Backward: undo step [i], then check its clause if it is a core lemma. *)
  let rec backward i =
    if i < 0 then Certified
    else begin
      let c = step_cid.(i) in
      rollback e step_trail.(i);
      match steps.(i) with
      | _ when c < 0 -> backward (i - 1)
      | Proof.Deleted _ ->
        attach e c;
        backward (i - 1)
      | Proof.Input _ ->
        detach e c;
        backward (i - 1)
      | Proof.Learned lits ->
        detach e c;
        if Bytes.get e.core c = '\000' then backward (i - 1)
        else begin
          Metrics.incr (m_checked ());
          if rup e c then backward (i - 1) else not_rup i lits
        end
    end
  in
  match forward 0 with
  | Error r -> r
  | Ok (last, confl) ->
    analyze e ~confl ~start_var:(-1);
    backward last

let certified p = check (Proof.steps p) = Certified
