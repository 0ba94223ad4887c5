module Suite = Sepsat_workloads.Suite
module Decide = Sepsat.Decide
module Ast = Sepsat_suf.Ast
module Verdict = Sepsat_sep.Verdict
module Deadline = Sepsat_util.Deadline
module Engine = Sepsat_serve.Engine
module Protocol = Sepsat_serve.Protocol
module Session = Sepsat_serve.Session

type target = In_process | Fleet of string

type config = {
  clients : int;
  repeats : int;
  bench_names : string list;
  method_ : Decide.method_;
  timeout_s : float;
  workers : int;
  queue_capacity : int;
  cache_capacity : int;
  target : target;
}

let default =
  {
    clients = 4;
    repeats = 3;
    bench_names = [ "pipe.3"; "pipe.5"; "cache.5"; "cache.6"; "tv.1" ];
    method_ = Decide.Hybrid_default;
    timeout_s = 30.;
    workers = 2;
    queue_capacity = 64;
    cache_capacity = 1024;
    target = In_process;
  }

type lat = {
  l_count : int;
  l_mean_ms : float;
  l_min_ms : float;
  l_max_ms : float;
  l_p50_ms : float;
  l_p90_ms : float;
  l_p99_ms : float;
}

let lat_of = function
  | [] ->
    {
      l_count = 0;
      l_mean_ms = 0.;
      l_min_ms = 0.;
      l_max_ms = 0.;
      l_p50_ms = 0.;
      l_p90_ms = 0.;
      l_p99_ms = 0.;
    }
  | ms ->
    let n = List.length ms in
    (* Same estimator the serving engine's stats use: a window sized to
       hold everything is just "exact quantiles of the sample". *)
    let w = Sepsat_obs.Window.create ~capacity:n () in
    List.iter (Sepsat_obs.Window.add w) ms;
    let p50, p90, p99 =
      match Sepsat_obs.Window.quantiles w [ 0.5; 0.9; 0.99 ] with
      | [ a; b; c ] -> (a, b, c)
      | _ -> (0., 0., 0.)
    in
    {
      l_count = n;
      l_mean_ms = List.fold_left ( +. ) 0. ms /. float_of_int n;
      l_min_ms = List.fold_left min infinity ms;
      l_max_ms = List.fold_left max neg_infinity ms;
      l_p50_ms = p50;
      l_p90_ms = p90;
      l_p99_ms = p99;
    }

type report = {
  r_config : config;
  r_requests : int;
  r_ok : int;
  r_busy : int;
  r_errors : int;
  r_wall_s : float;
  r_throughput_rps : float;
  r_all : lat;
  r_cold : lat;
  r_hit : lat;
  r_joined : lat;
  r_speedup : float;
  r_mismatches : (string * string * string) list;
}

(* One client's record of one response. *)
type obs = {
  ob_id : string;
  ob_bench : string;
  ob_verdict : string;  (* "valid"/"invalid"/"unknown"/"busy"/"error" *)
  ob_origin : Protocol.origin option;
  ob_ms : float;
}

let run config =
  let benchmarks =
    List.map
      (fun name ->
        match Suite.find name with
        | Some b -> b
        | None -> invalid_arg (Printf.sprintf "Loadgen.run: no benchmark %S" name))
      config.bench_names
  in
  (* The workload is text, like real traffic: each client re-sends the same
     bytes, and structural caching is what collapses them. *)
  let texts =
    List.map
      (fun (b : Suite.benchmark) ->
        let ctx = Ast.create_ctx () in
        (b.Suite.name, Format.asprintf "%a" Ast.pp (b.Suite.build ctx)))
      benchmarks
  in
  (* Sequential reference pass: the verdicts every concurrent response must
     reproduce. *)
  let sequential =
    List.map
      (fun (name, text) ->
        let ctx = Ast.create_ctx () in
        let f = Sepsat_suf.Parse.formula ctx text in
        let r =
          Decide.decide ~method_:config.method_
            ~deadline:(Deadline.after_wall config.timeout_s) ctx f
        in
        ( name,
          Protocol.verdict_to_string (Protocol.verdict_of_sep r.Decide.verdict)
        ))
      texts
  in
  let n_texts = List.length texts in
  let texts_arr = Array.of_list texts in
  (* One client's request schedule: client-specific rotation, so the cold
     phase overlaps distinct formulas instead of joining on one. *)
  let schedule k f =
    for round = 0 to config.repeats - 1 do
      for i = 0 to n_texts - 1 do
        let name, text = texts_arr.((i + k) mod n_texts) in
        let id = Printf.sprintf "%s#c%d.r%d" name k round in
        f ~id ~name ~text
      done
    done
  in
  let observations, wall_s =
    match config.target with
    | In_process ->
      let engine =
        Engine.create ~workers:config.workers
          ~queue_capacity:config.queue_capacity
          ~cache_capacity:config.cache_capacity
          ~default_timeout_s:config.timeout_s ()
      in
      let client k () =
        Sepsat_obs.Obs.name_thread (Printf.sprintf "loadgen:client-%d" k);
        let out = ref [] in
        schedule k (fun ~id ~name ~text ->
            let t0 = Deadline.wall_now () in
            let reply =
              Engine.solve ~block:true engine
                (Engine.job ~method_:config.method_
                   ~timeout_s:config.timeout_s text)
            in
            let ms = (Deadline.wall_now () -. t0) *. 1000. in
            let ob =
              match reply with
              | None ->
                { ob_id = id; ob_bench = name; ob_verdict = "busy";
                  ob_origin = None; ob_ms = ms }
              | Some (Error msg) ->
                ignore msg;
                { ob_id = id; ob_bench = name; ob_verdict = "error";
                  ob_origin = None; ob_ms = ms }
              | Some (Ok o) ->
                {
                  ob_id = id;
                  ob_bench = name;
                  ob_verdict = Protocol.verdict_to_string o.Engine.o_verdict;
                  ob_origin = Some o.Engine.o_origin;
                  ob_ms = ms;
                }
            in
            out := ob :: !out);
        !out
      in
      let t0 = Deadline.wall_now () in
      let domains =
        List.init config.clients (fun k -> Domain.spawn (client k))
      in
      let observations = List.concat_map Domain.join domains in
      let wall_s = Deadline.wall_now () -. t0 in
      Engine.shutdown engine;
      (observations, wall_s)
    | Fleet path ->
      (* Socket clients against a running server or fleet router. Threads,
         not domains: each client spends its life blocked on socket I/O,
         and threads let the concurrency exceed the core count — the
         p99-under-load scenario. Retries ride out busy sheds and backend
         restarts; a reply that is still busy after the retry budget is
         recorded as busy. *)
      let results = Array.make config.clients [] in
      let client k =
        let session = ref (Session.connect ~retries:50 path) in
        let out = ref [] in
        schedule k (fun ~id ~name ~text ->
            let t0 = Deadline.wall_now () in
            let s, reply =
              Session.with_retry ~path !session (fun s ->
                  Session.solve s ~id ~method_:config.method_
                    ~timeout_s:config.timeout_s text)
            in
            session := s;
            let ms = (Deadline.wall_now () -. t0) *. 1000. in
            let ob =
              match reply with
              | Protocol.Ok_solve s ->
                {
                  ob_id = id;
                  ob_bench = name;
                  ob_verdict =
                    Protocol.verdict_to_string s.Protocol.sv_verdict;
                  ob_origin = Some s.Protocol.sv_origin;
                  ob_ms = ms;
                }
              | Protocol.Busy _ ->
                { ob_id = id; ob_bench = name; ob_verdict = "busy";
                  ob_origin = None; ob_ms = ms }
              | _ ->
                { ob_id = id; ob_bench = name; ob_verdict = "error";
                  ob_origin = None; ob_ms = ms }
            in
            out := ob :: !out);
        Session.close !session;
        results.(k) <- !out
      in
      let t0 = Deadline.wall_now () in
      let threads = List.init config.clients (fun k -> Thread.create client k) in
      List.iter Thread.join threads;
      let wall_s = Deadline.wall_now () -. t0 in
      (List.concat (Array.to_list results), wall_s)
  in
  let requests = List.length observations in
  let ok =
    List.length
      (List.filter (fun o -> o.ob_origin <> None) observations)
  in
  let busy =
    List.length (List.filter (fun o -> o.ob_verdict = "busy") observations)
  in
  let errors =
    List.length (List.filter (fun o -> o.ob_verdict = "error") observations)
  in
  let bucket origin =
    List.filter_map
      (fun o -> if o.ob_origin = Some origin then Some o.ob_ms else None)
      observations
  in
  let cold = lat_of (bucket Protocol.Solved) in
  let hit = lat_of (bucket Protocol.Cache_hit) in
  let joined = lat_of (bucket Protocol.Joined) in
  let all =
    lat_of
      (List.filter_map
         (fun o -> if o.ob_origin <> None then Some o.ob_ms else None)
         observations)
  in
  let speedup =
    if cold.l_count > 0 && hit.l_count > 0 && hit.l_mean_ms > 0. then
      cold.l_mean_ms /. hit.l_mean_ms
    else 0.
  in
  let mismatches =
    List.filter_map
      (fun o ->
        match o.ob_origin with
        | None -> None
        | Some _ ->
          let expected = List.assoc o.ob_bench sequential in
          (* Unknown under concurrent load (budget contention) is a
             resource answer, not a soundness defect; only decisive
             disagreement counts. *)
          if
            o.ob_verdict <> expected
            && o.ob_verdict <> "unknown"
            && expected <> "unknown"
          then Some (o.ob_id, expected, o.ob_verdict)
          else None)
      observations
  in
  {
    r_config = config;
    r_requests = requests;
    r_ok = ok;
    r_busy = busy;
    r_errors = errors;
    r_wall_s = wall_s;
    r_throughput_rps =
      (if wall_s > 0. then float_of_int ok /. wall_s else 0.);
    r_all = all;
    r_cold = cold;
    r_hit = hit;
    r_joined = joined;
    r_speedup = speedup;
    r_mismatches = mismatches;
  }

let pp_lat ppf (name, l) =
  if l.l_count = 0 then Format.fprintf ppf "  %-7s -@." name
  else
    Format.fprintf ppf
      "  %-7s %5d responses  mean %8.3f ms  min %8.3f  p50 %8.3f  p90 \
       %8.3f  p99 %8.3f  max %8.3f@."
      name l.l_count l.l_mean_ms l.l_min_ms l.l_p50_ms l.l_p90_ms l.l_p99_ms
      l.l_max_ms

let pp ppf r =
  (match r.r_config.target with
  | In_process -> Format.fprintf ppf "Serving load generator@."
  | Fleet path -> Format.fprintf ppf "Serving load generator — fleet at %s@." path);
  Format.fprintf ppf
    "  %d clients x %d repeats over %d benchmarks, %d workers, %a@."
    r.r_config.clients r.r_config.repeats
    (List.length r.r_config.bench_names)
    r.r_config.workers Decide.pp_method r.r_config.method_;
  Format.fprintf ppf "  %d requests (%d ok, %d busy, %d errors) in %.3f s  =>  %.1f req/s@."
    r.r_requests r.r_ok r.r_busy r.r_errors r.r_wall_s r.r_throughput_rps;
  pp_lat ppf ("all", r.r_all);
  pp_lat ppf ("cold", r.r_cold);
  pp_lat ppf ("hit", r.r_hit);
  pp_lat ppf ("joined", r.r_joined);
  (if r.r_speedup > 0. then
     Format.fprintf ppf "  cache-hit speedup: %.1fx@." r.r_speedup);
  match r.r_mismatches with
  | [] -> Format.fprintf ppf "  verdicts: all agree with the sequential pass@."
  | ms ->
    Format.fprintf ppf "  VERDICT MISMATCHES (%d):@." (List.length ms);
    List.iter
      (fun (id, want, got) ->
        Format.fprintf ppf "    %s: sequential %s, served %s@." id want got)
      ms

let write_json path r =
  let module J = Sepsat_util.Json in
  let flat l =
    J.Obj
      [
        ("count", J.Num (float_of_int l.l_count));
        ("mean_ms", J.Num l.l_mean_ms);
        ("min_ms", J.Num (if l.l_count = 0 then 0. else l.l_min_ms));
        ("p50_ms", J.Num l.l_p50_ms);
        ("p90_ms", J.Num l.l_p90_ms);
        ("p99_ms", J.Num l.l_p99_ms);
        ("max_ms", J.Num (if l.l_count = 0 then 0. else l.l_max_ms));
      ]
  in
  (* The "runs" array speaks the perf-gate dialect ({!Baseline.read}
     pairs on bench+method, reads "wall_s"): each latency quantile of the
     run becomes one comparable entry, so `bench --compare` gates fleet
     p99-under-load exactly like a figure-2 wall time. Machine speed
     cancels through the gate's drift normalization (all quantiles shift
     together); a genuine tail blowup moves p99 out of the pack. *)
  let bench_label =
    match r.r_config.target with
    | In_process -> "serve.loadgen"
    | Fleet _ -> "fleet.loadgen"
  in
  let runs =
    List.map
      (fun (m, ms) ->
        J.Obj
          [
            ("bench", J.Str bench_label);
            ("method", J.Str m);
            ("wall_s", J.Num (ms /. 1000.));
          ])
      [
        ("mean", r.r_all.l_mean_ms);
        ("p50", r.r_all.l_p50_ms);
        ("p90", r.r_all.l_p90_ms);
        ("p99", r.r_all.l_p99_ms);
      ]
  in
  let j =
    J.Obj
      [
        ("schema", J.Num 2.);
        ("runs", J.Arr runs);
        ( "config",
          J.Obj
            [
              ("clients", J.Num (float_of_int r.r_config.clients));
              ("repeats", J.Num (float_of_int r.r_config.repeats));
              ( "benchmarks",
                J.Arr (List.map (fun n -> J.Str n) r.r_config.bench_names) );
              ("method", J.Str (Protocol.method_to_wire r.r_config.method_));
              ("timeout_s", J.Num r.r_config.timeout_s);
              ("workers", J.Num (float_of_int r.r_config.workers));
              ( "queue_capacity",
                J.Num (float_of_int r.r_config.queue_capacity) );
              ( "cache_capacity",
                J.Num (float_of_int r.r_config.cache_capacity) );
            ] );
        ("requests", J.Num (float_of_int r.r_requests));
        ("ok", J.Num (float_of_int r.r_ok));
        ("busy", J.Num (float_of_int r.r_busy));
        ("errors", J.Num (float_of_int r.r_errors));
        ("wall_s", J.Num r.r_wall_s);
        ("throughput_rps", J.Num r.r_throughput_rps);
        ("all", flat r.r_all);
        ("cold", flat r.r_cold);
        ("hit", flat r.r_hit);
        ("joined", flat r.r_joined);
        ("speedup", J.Num r.r_speedup);
        ( "mismatches",
          J.Arr
            (List.map
               (fun (id, want, got) ->
                 J.Obj
                   [
                     ("id", J.Str id);
                     ("sequential", J.Str want);
                     ("served", J.Str got);
                   ])
               r.r_mismatches) );
      ]
  in
  let oc = open_out path in
  output_string oc (J.to_string j);
  output_char oc '\n';
  close_out oc
