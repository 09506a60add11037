(* One insertion per step; the caller owns the bins. *)
let sim ?metrics rule bins =
  Engine.Sim.make ?metrics
    ~step:(fun g -> snd (Bins.insert_with_rule rule g bins))
    ~observe:(fun () -> Bins.loads bins)
    ~reset:(fun loads -> Bins.reset_loads bins loads)
    ~probe:(fun () -> Bins.max_load bins)
    ()

let run_stats rule g ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Static_process.run";
  let bins = Bins.create ~n in
  let s = sim rule bins in
  Engine.Sim.iterate s g m;
  let probes = (Engine.Metrics.snapshot (Engine.Sim.metrics s)).probes in
  let avg = if m = 0 then 0. else float_of_int probes /. float_of_int m in
  (bins, avg)

let run rule g ~n ~m = fst (run_stats rule g ~n ~m)

let max_load_samples rule g ~n ~m ~reps =
  if reps < 0 then invalid_arg "Static_process.max_load_samples";
  Array.init reps (fun _ ->
      let g' = Prng.Rng.split g in
      Bins.max_load (run rule g' ~n ~m))
