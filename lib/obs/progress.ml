type snapshot = {
  p_conflicts : int;
  p_decisions : int;
  p_propagations : int;
  p_learnts : int;
  p_trail : int;
  p_vars : int;
  p_level : int;
  p_elapsed : float;
  p_rate : float;
  p_tid : int;
}

let callback_ : (snapshot -> unit) option Atomic.t = Atomic.make None

let set_callback cb = Atomic.set callback_ cb

let callback () = Atomic.get callback_

(* Per-domain (time, conflicts) of the previous tick, for the interval
   conflict rate; fresh domains start from the tick itself. *)
let last_key = Domain.DLS.new_key (fun () -> ref (0., 0))

let tick ~conflicts ~decisions ~propagations ~learnts ~trail ~vars ~level
    ~started =
  (* Runs for any live consumer: the store (on in servers, so a wedged
     solve leaves its last snapshots in the flight dump) or an installed
     callback (the engine's live lane table). *)
  if Obs.enabled () || Option.is_some (Atomic.get callback_) then begin
    let now = Unix.gettimeofday () in
    let last = Domain.DLS.get last_key in
    let t_prev, c_prev = !last in
    let rate =
      if t_prev > 0. && now > t_prev && conflicts >= c_prev then
        float_of_int (conflicts - c_prev) /. (now -. t_prev)
      else 0.
    in
    last := (now, conflicts);
    if Obs.enabled () then
      Obs.record
        ~data:
          [
            ("conflicts", string_of_int conflicts);
            ("learnts", string_of_int learnts);
            ("trail", Printf.sprintf "%d/%d" trail vars);
            ("rate", Printf.sprintf "%.0f" rate);
            ("elapsed_s", Printf.sprintf "%.3f" (Float.max 0. (now -. started)));
          ]
        Obs.Progress "sat.progress";
    let snap =
      {
        p_conflicts = conflicts;
        p_decisions = decisions;
        p_propagations = propagations;
        p_learnts = learnts;
        p_trail = trail;
        p_vars = vars;
        p_level = level;
        p_elapsed = Float.max 0. (now -. started);
        p_rate = rate;
        p_tid = (Domain.self () :> int);
      }
    in
    match Atomic.get callback_ with None -> () | Some f -> f snap
  end

let pp_snapshot ppf s =
  Format.fprintf ppf
    "[d%d %7.1fs] conflicts=%d (%.0f/s) decisions=%d propagations=%d \
     learnts=%d trail=%d/%d level=%d"
    s.p_tid s.p_elapsed s.p_conflicts s.p_rate s.p_decisions s.p_propagations
    s.p_learnts s.p_trail s.p_vars s.p_level

let printer_key = Domain.DLS.new_key (fun () -> ref 0.)

let install_printer ?(every_s = 1.0) () =
  set_callback
    (Some
       (fun snap ->
         let last_print = Domain.DLS.get printer_key in
         let now = Unix.gettimeofday () in
         if now -. !last_print >= every_s then begin
           last_print := now;
           Format.eprintf "%a@." pp_snapshot snap
         end))
