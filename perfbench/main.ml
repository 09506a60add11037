(* perfbench: the repository's benchmark.

     main.exe --workload sim|exact --seed N --seconds S --trace 0|1
     main.exe daemon --sock PATH --dir DIR --seed N   (the serve daemon)

   Every run executes the three parts (sim, exact, serve), so every
   end-to-end metric is measured on every workload; the workload picks
   the size of the exact cells.  Untraced runs repeat the cycle until [--seconds] have
   passed (at least [min_cycles] times) and report the median of each
   metric over the cycles.  A traced run makes a warm-up cycle, one
   untraced and one traced cycle, then the per-layer probes.  The last
   line of stdout is the JSON result; the exit code is non-zero when any
   correctness check failed.  See README.md for the workloads and
   metrics. *)

open Perfbench

type workload = Sim | Exact

let workload_of_string = function
  | "sim" -> Sim
  | "exact" -> Exact
  | w -> failwith (Printf.sprintf "unknown workload %S (sim | exact)" w)

let exact_size = function
  | Exact ->
      { Exact_part.build = { n = 40; all_starts = false; tau = 111 };
        search = { n = 24; all_starts = true; tau = 56 } }
  | Sim ->
      { Exact_part.build = { n = 30; all_starts = false; tau = 75 };
        search = { n = 18; all_starts = true; tau = 38 } }

type cycle = {
  sim : Sim_part.result;
  exact : Exact_part.result;
  serve : Serve_part.result;
  wall_s : float;
}

let run_cycle ~workload ~seed ~work ~check =
  (* Start every cycle from a collected heap, so no cycle pays for the
     previous one's garbage. *)
  Gc.full_major ();
  let t0 = Tr.now_ns () in
  let sim = Sim_part.run ~seed ~check in
  let exact = Exact_part.run ~size:(exact_size workload) ~check ~keep_chain:!Tr.enabled in
  let serve = Serve_part.run ~seed ~work ~check in
  { sim; exact; serve; wall_s = float_of_int (Tr.now_ns () - t0) *. 1e-9 }

(* {2 Metrics} *)

let end_to_end =
  [ ("setup_s", "s", fun c -> c.serve.Serve_part.setup_s);
    ("recovery_s", "s", fun c -> c.sim.Sim_part.recovery_s);
    ("tv_decay_s", "s", fun c -> c.sim.Sim_part.tv_decay_s);
    ("rbb_s", "s", fun c -> c.sim.Sim_part.rbb_s);
    ("tau_build_s", "s", fun c -> c.exact.Exact_part.build_cell.total_s);
    ("tau_search_s", "s", fun c -> c.exact.Exact_part.search_cell.total_s) ]

(* The serve figures move 2x between runs with the host's scheduling of
   the daemon's two domains (README.md, "Serve figures"), too much for a
   regression bound, so they are reported but not gated: in the text
   report of every run and as per-layer metrics of the traced run. *)
let serve_figures =
  [ ("ops_per_s", "ops/s", fun c -> c.serve.Serve_part.ops_per_s);
    ("p50_us", "us", fun c -> c.serve.Serve_part.p50_us);
    ("p99_us", "us", fun c -> c.serve.Serve_part.p99_us);
    ("restart_s", "s", fun c -> c.serve.Serve_part.restart_s) ]

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n land 1 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let self_hwm_mb () =
  Serve_part.vm_hwm_mb (Unix.getpid ())

(* Steps per second over the runner's "run" phase, the denominator
   Metrics.to_table uses for its steps/sec row. *)
let engine_metrics part (m : Engine.Metrics.snapshot) =
  let secs = List.assoc "run" m.phases in
  [ ("engine.steps." ^ part, "count", float_of_int m.steps);
    ("engine.rng_draws." ^ part, "count", float_of_int m.rng_draws);
    ("engine.steps_per_s." ^ part, "1/s", float_of_int m.steps /. secs) ]

let layers = [ "prng"; "core"; "rbb"; "engine"; "markov"; "parallel"; "serve"; "loadgen"; "obs" ]

let spmv_calls () =
  Option.value ~default:0 (List.assoc_opt "bcsr.spmv_calls" (Obs.counters ()))

(* The traced run: per-layer figures from the traced cycle plus the
   probes, all inside the tracer. *)
let per_layer ~(untraced : cycle) ~(traced : cycle) ~stream ~work =
  let c = traced in
  (* Read before the probes, which call spmv themselves. *)
  let spmv_count = spmv_calls () in
  let ns_words name (ns, words) =
    [ (name ^ "_ns", "ns", ns); (name ^ "_words", "words", words) ]
  in
  let reprs = Core.Repr.[ Array_backed; Count_backed; Count_sampled ] in
  let repr_rows prefix f =
    List.concat_map
      (fun r ->
        let ns, words = f r in
        [ (Printf.sprintf "%s_ns.%s" prefix (Core.Repr.name r), "ns", ns);
          (Printf.sprintf "%s_words.%s" prefix (Core.Repr.name r), "words", words) ])
      reprs
  in
  let prng = ns_words "prng.int" (Probes.prng ()) in
  let system = ns_words "core.system_step" (Probes.system_step ()) in
  let steppers = repr_rows "core.step" Probes.stepper in
  let rounds = repr_rows "rbb.round" Probes.rbb_round in
  let spmv, multi = Probes.spmv (Option.get c.exact.Exact_part.build_cell.chain) in
  let pool_us = Probes.pool_run () in
  let depth = Serve_part.depth in
  let events = Probes.events_of stream ~count:200_000 in
  let decode = Probes.decode stream in
  let apply1, replies = Probes.apply events ~depth ~shards:1 in
  let apply2, _ = Probes.apply events ~depth ~shards:2 in
  let reply = Probes.reply replies in
  let journal_ns, journal_bytes = Probes.journal events ~depth ~work in
  let restore = Probes.restore events ~depth ~work in
  let qerr = Probes.quantile_rel_err () in
  let tv_self =
    match Hashtbl.find_opt Tr.table "markov.empirical.decay_profile" with
    | Some a -> float_of_int (a.Tr.total_ns - a.Tr.child_ns) *. 1e-9
    | None -> 0.
  in
  let b = c.exact.build_cell and s = c.exact.search_cell in
  let totals = Tr.layer_totals () in
  List.map (fun (name, unit, f) -> (name, unit, f untraced)) serve_figures
  @ prng @ system @ steppers @ rounds
  @ engine_metrics "recovery" c.sim.recovery_metrics
  @ engine_metrics "rbb" c.sim.rbb_metrics
  @ [ ("markov.empirical.steps", "count", float_of_int c.sim.tv_steps);
      ("markov.empirical.self_s", "s", tv_self);
      ("markov.build_s", "s", b.build_s);
      ("markov.build.states_per_s", "1/s", float_of_int b.states /. b.build_s);
      ("markov.stationary_s", "s", s.stationary_s);
      ("markov.mix_search_s", "s", s.mix_search_s);
      ("markov.spmv_ns_per_nnz", "ns", spmv);
      ("markov.step_tv_multi_ns_per_nnz.b16", "ns", multi);
      ("markov.spmv_count", "count", float_of_int spmv_count);
      ("parallel.pool_run_us", "us", pool_us);
      ("serve.decode_ns", "ns", decode);
      ("serve.apply_ns.s1", "ns", apply1);
      ("serve.apply_ns.s2", "ns", apply2);
      ("serve.reply_ns", "ns", reply);
      ("serve.journal_ns", "ns", journal_ns);
      ("serve.journal_bytes_per_event", "bytes", journal_bytes);
      ("serve.restore_events_per_s", "1/s", restore) ]
  @ c.serve.daemon
  @ [ ("loadgen.late_ms", "ms", c.serve.late_ms);
      ("obs.quantile_rel_err", "ratio", qerr);
      ("trace.overhead_frac", "ratio", (traced.wall_s /. untraced.wall_s) -. 1.) ]
  @ List.concat_map
      (fun l ->
        let self, count = totals l in
        [ ("trace.self_s." ^ l, "s", self); ("trace.spans." ^ l, "count", float_of_int count) ])
      layers

(* {2 Output} *)

let print_result ~check metrics =
  let fields =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (Experiment.Json.float_repr v) unit)
      metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (Check.correct check) check.Check.attempted check.Check.failed
    (String.concat ", " fields)

let mkdir_p path =
  let rec go p =
    if p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      Unix.mkdir p 0o755
    end
  in
  go path

(* Requests in the stream the serve probes decode and apply. *)
let probe_stream = 400_000

(* Untraced runs repeat the cycle until the time is up, but at least
   this often, so every median has several samples. *)
let min_cycles = 4

let run ~workload ~seed ~seconds ~trace ~commit ~flambda =
  let work = Filename.concat ".bench_run" (string_of_int (Unix.getpid ())) in
  mkdir_p work;
  at_exit (fun () ->
      Serve_part.kill_all ();
      Serve_part.rm_rf work;
      try Unix.rmdir ".bench_run" with Unix.Unix_error _ -> ());
  let check = Check.create () in
  let start = Tr.now_ns () in
  let elapsed () = float_of_int (Tr.now_ns () - start) *. 1e-9 in
  (* Cycle [i] draws its inputs from its own seed, so the median over
     cycles averages over inputs as well as over timing noise. *)
  let count = ref 0 in
  let cycle () =
    incr count;
    run_cycle ~workload ~seed:((seed * 1000) + !count) ~work ~check
  in
  let cycles, metrics =
    if not trace then begin
      let rec go acc =
        let acc = cycle () :: acc in
        if List.length acc < min_cycles || elapsed () < seconds then go acc
        else List.rev acc
      in
      let cs = go [] in
      let e2e =
        List.map (fun (name, unit, f) -> (name, unit, median (List.map f cs))) end_to_end
        @ [ ("peak_rss_mb", "MiB", self_hwm_mb ()) ]
      in
      (cs, e2e)
    end
    else begin
      (* The process's first cycle also pays for growing the heap, so it
         is not the one the traced cycle is compared with. *)
      ignore (cycle ());
      let untraced = cycle () in
      Tr.enabled := true;
      Obs.enable ();
      let traced = cycle () in
      let stream =
        Loadgen.generate ~seed:(seed + 17) ~count:probe_stream
      in
      let m = per_layer ~untraced ~traced ~stream ~work in
      Tr.enabled := false;
      Obs.disable ();
      ([ untraced; traced ], m)
    end
  in
  List.iter
    (fun (name, _, v) ->
      if not (Float.is_finite v) then Check.expect check false ("metric " ^ name ^ " is not finite"))
    metrics;
  (* Human-readable report: every metric with its unit, then what the
     JSON line leaves out. *)
  List.iter (fun (name, unit, v) -> Printf.printf "%-40s %14.6g %s\n" name v unit) metrics;
  if not trace then
    List.iter
      (fun (name, unit, f) ->
        Printf.printf "%-40s %14.6g %s (not gated)\n" name (median (List.map f cycles)) unit)
      serve_figures;
  let last = List.nth cycles (List.length cycles - 1) in
  let sv = last.serve in
  Printf.printf "%-40s %14.6g %s\n" "failed_frac"
    (float_of_int check.Check.failed /. float_of_int (max 1 check.Check.attempted))
    "ratio";
  Printf.printf
    "paced phase (last cycle): client p50 %.1f us, windowed p99 %.1f us, \
     whole-phase p99 %.1f us (%d samples); daemon: %s\n"
    sv.p50_us sv.p99_us sv.p99_phase_us sv.samples
    (String.concat ", "
       (List.map (fun (k, _, v) -> Printf.sprintf "%s=%.4g" k v) sv.daemon));
  List.iter (fun m -> Printf.printf "FAILED: %s\n" m) (Check.messages check);
  let metrics = List.map (fun (n, u, v) -> (n, u, if Float.is_finite v then v else 0.)) metrics in
  let spread f =
    let xs = List.map f cycles in
    let lo = List.fold_left Float.min infinity xs and hi = List.fold_left Float.max neg_infinity xs in
    (hi -. lo) /. median xs
  in
  let spreads =
    if trace then []
    else
      List.map
        (fun (name, _, f) -> Printf.sprintf "%S: %.4f" name (spread f))
        (end_to_end @ serve_figures)
  in
  Printf.printf
    "{\"provenance\": {\"workload\": %S, \"seed\": %d, \"seconds\": %g, \"trace\": %b, \
     \"cycles\": %d, \"cycle_range_over_median\": {%s}, \"nproc\": %d, \"ocaml\": %S, \
     \"flambda\": %S, \"commit\": %S}}\n"
    (match workload with Sim -> "sim" | Exact -> "exact")
    seed seconds trace (List.length cycles) (String.concat ", " spreads)
    (Domain.recommended_domain_count ()) Sys.ocaml_version flambda commit;
  print_result ~check metrics;
  exit (if Check.correct check then 0 else 1)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec opts acc = function
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
        opts ((String.sub k 2 (String.length k - 2), v) :: acc) rest
    | [] -> acc
    | a :: _ -> failwith ("unexpected argument " ^ a)
  in
  try
    match args with
    | "daemon" :: rest ->
        let o = opts [] rest in
        Serve_part.daemon ~sock:(List.assoc "sock" o) ~dir:(List.assoc "dir" o)
          ~seed:(int_of_string (List.assoc "seed" o))
    | _ ->
        let o = opts [] args in
        let get k = match List.assoc_opt k o with Some v -> v | None -> failwith ("missing --" ^ k) in
        run
          ~workload:(workload_of_string (get "workload"))
          ~seed:(int_of_string (get "seed"))
          ~seconds:(float_of_string (get "seconds"))
          ~trace:(get "trace" = "1")
          ~commit:(Option.value (List.assoc_opt "commit" o) ~default:"unknown")
          ~flambda:(Option.value (List.assoc_opt "flambda" o) ~default:"unknown")
  with Failure msg | Invalid_argument msg ->
    prerr_endline ("perfbench: " ^ msg);
    exit 2
