(* Reference implementations for Markov.Empirical.decay_profile, which
   samples one trajectory per repetition at every grid time.

   [observable_tv] and [decay_profile] are the historical fresh-runs
   estimator: every time point splits its own generators off the parent
   and re-simulates from the start, Σt steps per repetition.  A single
   time consumes the parent exactly as the trajectory version does, so
   the two agree bit for bit there.

   [replay_profile] splits the per-repetition generators in the
   trajectory version's order (all of y0's repetitions, then x0's) and,
   for each requested time t, replays t steps from a copy of each one:
   the value the trajectory version must reproduce at every time. *)

let iterate chain g s t =
  let state = ref s in
  for _ = 1 to t do
    state := chain.Markov.Chain.step g !state
  done;
  !state

let observable_tv chain ~rng ~x0 ~y0 ~t ~reps ~observable =
  let sample start =
    Array.init reps (fun _ ->
        let g = Prng.Rng.split rng in
        observable (iterate chain g (start ()) t))
  in
  (* Explicit right-to-left order: the historical code wrote
     [tv_between_samples (sample x0) (sample y0)], whose arguments the
     compiler evaluates right to left, so y0 drew its generators first. *)
  let ys = sample y0 in
  let xs = sample x0 in
  Markov.Empirical.tv_between_samples xs ys

let decay_profile chain ~rng ~x0 ~y0 ~times ~reps ~observable =
  List.map
    (fun t -> (t, observable_tv chain ~rng ~x0 ~y0 ~t ~reps ~observable))
    times

let replay_profile chain ~rng ~x0 ~y0 ~times ~reps ~observable =
  let gens start = (start, Array.init reps (fun _ -> Prng.Rng.split rng)) in
  let ys = gens y0 in
  let xs = gens x0 in
  let sample (start, gs) t =
    Array.map
      (fun g -> observable (iterate chain (Prng.Rng.copy g) (start ()) t))
      gs
  in
  List.map
    (fun t -> (t, Markov.Empirical.tv_between_samples (sample xs t) (sample ys t)))
    times
