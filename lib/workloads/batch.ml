module Ast = Sepsat_suf.Ast

(* Scenario-generation batches: [n_units] store-buffer units over disjoint
   symbol spaces, conjoined into one joint-feasibility query. Each unit
   constrains its own queue — store addresses inside allocation windows,
   ascending address order — and demands a local "dirty read" state: the
   first [n_dirty] load addresses must each alias some store. The batch
   formula claims the joint scenario is impossible, so a healthy batch is
   INVALID and the countermodel assembles every unit's scenario at once.

   Because the units share no symbols, the negation is a conjunction of
   independent constraint systems, and every unit contributes separation
   classes of its own.

   [bug] here is an overconstrained spec: the last unit also keeps its whole
   load region strictly below the queue tail, which contradicts its dirty
   reads and makes the batch vacuously valid (one UNSAT unit). *)

let unit_system ctx ~prefix ~n_ops ~blocked =
  let n = max 2 n_ops in
  let n_dirty = max 1 (n / 2) in
  let cst fmt = Format.kasprintf (Ast.const ctx) fmt in
  let head = cst "%s_h" prefix and tail = cst "%s_t" prefix in
  let addr = Array.init n (fun k -> cst "%s_sa%d" prefix k) in
  let stored = Array.init n (fun k -> cst "%s_w%d" prefix k) in
  let mem0 idx = Ast.app ctx (prefix ^ "_mem0") [ idx ] in
  let read a =
    let rec overlay k =
      if k < 0 then mem0 a
      else Ast.tite ctx (Ast.eq ctx a addr.(k)) stored.(k) (overlay (k - 1))
    in
    overlay (n - 1)
  in
  (* Store address k sits in the allocation window [t+k, t+n]. *)
  let window =
    List.concat
      (List.init n (fun k ->
           [
             Ast.le ctx (Ast.plus ctx tail k) addr.(k);
             Ast.le ctx addr.(k) (Ast.plus ctx tail n);
           ]))
  in
  (* Stores drain in address order. *)
  let order =
    List.init (n - 1) (fun k -> Ast.lt ctx addr.(k) addr.(k + 1))
  in
  (* The load region starts below the tail; a blocked unit keeps ALL of it
     below the tail, putting every load under every store window. *)
  let occupancy =
    if blocked then Ast.lt ctx (Ast.plus ctx head n_dirty) tail
    else Ast.lt ctx head tail
  in
  (* Local bad state: the first [n_dirty] loads past the head all read a
     store, not the original memory. *)
  let dirty =
    List.init n_dirty (fun i ->
        let a = Ast.plus ctx head (i + 1) in
        Ast.not_ ctx (Ast.eq ctx (read a) (mem0 a)))
  in
  Ast.and_list ctx ((occupancy :: window) @ order @ dirty)

let formula ?(bug = false) ctx ~n_units ~n_ops =
  let k = max 1 n_units in
  let units =
    List.init k (fun u ->
        unit_system ctx
          ~prefix:(Printf.sprintf "b%d" u)
          ~n_ops
          ~blocked:(bug && u = k - 1))
  in
  Ast.not_ ctx (Ast.and_list ctx units)
