module Vec = Sepsat_util.Vec

type result = Certified | Incomplete | Bogus of string

(* A minimal two-watched-literal propagation engine, independent of the CDCL
   solver. Values: 0 unassigned, 1 true, -1 false. *)

type clause = { lits : Lit.t array; mutable dead : bool }

type engine = {
  mutable assigns : int array;  (* per variable *)
  watches : clause Vec.t Vec.t;  (* per literal *)
  trail : Lit.t Vec.t;
  mutable permanent : int;  (* trail prefix that is never rolled back *)
  mutable contradiction : bool;  (* empty clause follows by propagation *)
  by_key : (string, clause list ref) Hashtbl.t;  (* for deletions *)
}

let create () =
  {
    assigns = Array.make 16 0;
    watches = Vec.create ~dummy:(Vec.create ~dummy:{ lits = [||]; dead = true });
    trail = Vec.create ~dummy:(Lit.pos 0);
    permanent = 0;
    contradiction = false;
    by_key = Hashtbl.create 256;
  }

let ensure_var e v =
  if v >= Array.length e.assigns then begin
    let a = Array.make (max (v + 1) (2 * Array.length e.assigns)) 0 in
    Array.blit e.assigns 0 a 0 (Array.length e.assigns);
    e.assigns <- a
  end;
  while Vec.size e.watches <= (2 * v) + 1 do
    Vec.push e.watches (Vec.create ~dummy:{ lits = [||]; dead = true })
  done

let value e l =
  let a = e.assigns.(Lit.var l) in
  if Lit.sign l then a else -a

let assign e l =
  e.assigns.(Lit.var l) <- (if Lit.sign l then 1 else -1);
  Vec.push e.trail l

let key lits =
  List.sort_uniq Lit.compare lits
  |> List.map (fun l -> string_of_int (Lit.to_int l))
  |> String.concat ","

(* Propagate from [from] onwards; true = no conflict. *)
let propagate e ~from =
  let qhead = ref from in
  let conflict = ref false in
  while (not !conflict) && !qhead < Vec.size e.trail do
    let p = Vec.get e.trail !qhead in
    incr qhead;
    let ws = Vec.get e.watches (Lit.to_int p) in
    (* clauses watching (neg p), registered under p *)
    let i = ref 0 in
    let j = ref 0 in
    let n = Vec.size ws in
    while !i < n do
      let c = Vec.get ws !i in
      incr i;
      if c.dead then () (* drop lazily *)
      else begin
        let false_lit = Lit.neg p in
        if Lit.equal c.lits.(0) false_lit then begin
          c.lits.(0) <- c.lits.(1);
          c.lits.(1) <- false_lit
        end;
        let first = c.lits.(0) in
        if value e first = 1 then begin
          Vec.set ws !j c;
          incr j
        end
        else begin
          let len = Array.length c.lits in
          let k = ref 2 in
          while !k < len && value e c.lits.(!k) = -1 do
            incr k
          done;
          if !k < len then begin
            c.lits.(1) <- c.lits.(!k);
            c.lits.(!k) <- false_lit;
            Vec.push (Vec.get e.watches (Lit.to_int (Lit.neg c.lits.(1)))) c
          end
          else if value e first = -1 then begin
            conflict := true;
            while !i < n do
              Vec.set ws !j (Vec.get ws !i);
              incr j;
              incr i
            done;
            Vec.set ws !j c;
            incr j
          end
          else begin
            assign e first;
            Vec.set ws !j c;
            incr j
          end
        end
      end
    done;
    Vec.shrink ws !j
  done;
  not !conflict

(* Roll the trail back to [mark], unassigning. *)
let rollback e mark =
  for i = Vec.size e.trail - 1 downto mark do
    e.assigns.(Lit.var (Vec.get e.trail i)) <- 0
  done;
  Vec.shrink e.trail mark

(* Add a clause permanently (after the containing step was validated). *)
let add_clause e lits =
  if not e.contradiction then begin
    let lits = List.sort_uniq Lit.compare lits in
    List.iter (fun l -> ensure_var e (Lit.var l)) lits;
    let taut = List.exists (fun l -> List.exists (Lit.equal (Lit.neg l)) lits) lits in
    if not taut then
      match lits with
      | [] -> e.contradiction <- true
      | [ l ] -> (
        match value e l with
        | 1 -> ()
        | -1 -> e.contradiction <- true
        | _ ->
          assign e l;
          e.permanent <- Vec.size e.trail;
          if not (propagate e ~from:(e.permanent - 1)) then
            e.contradiction <- true
          else e.permanent <- Vec.size e.trail)
      | _ :: _ :: _ ->
        let c = { lits = Array.of_list lits; dead = false } in
        (* Prefer watching unassigned/true literals so the invariant holds
           under the current permanent assignment. *)
        let arr = c.lits in
        let swap a b =
          let t = arr.(a) in
          arr.(a) <- arr.(b);
          arr.(b) <- t
        in
        let pick into from_ =
          if value e arr.(into) = -1 then begin
            let k = ref from_ in
            while !k < Array.length arr && value e arr.(!k) = -1 do
              incr k
            done;
            if !k < Array.length arr then swap into !k
          end
        in
        pick 0 2;
        pick 1 2;
        (* With only [arr.(1)] left non-false the clause is unit on it:
           move it to the front so the unit case below propagates it. *)
        if value e arr.(0) = -1 then swap 0 1;
        Vec.push (Vec.get e.watches (Lit.to_int (Lit.neg arr.(0)))) c;
        Vec.push (Vec.get e.watches (Lit.to_int (Lit.neg arr.(1)))) c;
        let entry =
          match Hashtbl.find_opt e.by_key (key lits) with
          | Some r -> r
          | None ->
            let r = ref [] in
            Hashtbl.add e.by_key (key lits) r;
            r
        in
        entry := c :: !entry;
        (* The clause may be unit or false under the permanent trail. *)
        if value e arr.(0) = -1 && value e arr.(1) = -1 then
          e.contradiction <- true
        else if value e arr.(1) = -1 && value e arr.(0) = 0 then begin
          assign e arr.(0);
          if not (propagate e ~from:(Vec.size e.trail - 1)) then
            e.contradiction <- true
          else e.permanent <- Vec.size e.trail
        end
  end

let delete_clause e lits =
  let lits = List.sort_uniq Lit.compare lits in
  match lits with
  | [] | [ _ ] -> () (* lenient: unit/empty deletions are ignored *)
  | _ -> (
    match Hashtbl.find_opt e.by_key (key lits) with
    | Some ({ contents = c :: rest } as r) ->
      c.dead <- true;
      r := rest
    | Some { contents = [] } | None -> ())

(* RUP check: asserting the negation of every literal of [lits] and
   propagating must conflict. *)
let rup e lits =
  if e.contradiction then true
  else begin
    let mark = Vec.size e.trail in
    let lits = List.sort_uniq Lit.compare lits in
    List.iter (fun l -> ensure_var e (Lit.var l)) lits;
    let rec assume = function
      | [] -> true (* no immediate contradiction among the assumptions *)
      | l :: rest -> (
        match value e l with
        | 1 -> false (* l already true: ¬l contradicts immediately *)
        | -1 -> assume rest
        | _ ->
          assign e (Lit.neg l);
          assume rest)
    in
    let no_immediate = assume lits in
    let ok = (not no_immediate) || not (propagate e ~from:mark) in
    rollback e mark;
    ok
  end

let check steps =
  let e = create () in
  let empty_seen = ref false in
  let rec go i = function
    | [] ->
      if !empty_seen || e.contradiction then Certified else Incomplete
    | step :: rest -> (
      match step with
      | Proof.Input c ->
        add_clause e c;
        go (i + 1) rest
      | Proof.Deleted c ->
        delete_clause e c;
        go (i + 1) rest
      | Proof.Learned c ->
        if not (rup e c) then
          Bogus
            (Format.asprintf "step %d: clause {%a} is not RUP" i
               (Format.pp_print_list
                  ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
                  Lit.pp)
               c)
        else begin
          if c = [] then empty_seen := true;
          add_clause e c;
          go (i + 1) rest
        end)
  in
  go 1 steps

let certified p = check (Proof.steps p) = Certified
