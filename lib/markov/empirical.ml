(* Counting and the plug-in TV distance are delegated to the shared
   count layer (Stats.Freq) introduced with the lib/validate conformance
   subsystem; this module keeps its historical interface and error
   messages and adds only the chain-driving glue. *)

let counts_of what sample =
  if Array.length sample = 0 then
    invalid_arg (Printf.sprintf "Empirical.%s: empty sample" what);
  Array.iter
    (fun v ->
      if v < 0 then
        invalid_arg (Printf.sprintf "Empirical.%s: negative value" what))
    sample;
  Stats.Freq.of_values sample

let tv_between_samples a b =
  let ca = counts_of "tv_between_samples" a
  and cb = counts_of "tv_between_samples" b in
  Stats.Freq.tv ca cb

(* The observable at each time of the sorted, distinct [grid], from
   [reps] trajectories of one start: [samples.(k).(r)] is repetition r at
   [grid.(k)].  Repetition r splits one generator off [rng] and runs a
   single trajectory to the last grid time, so its state at time t is
   the state t fresh steps from a copy of that generator reach. *)
let sample chain ~rng ~grid ~reps ~observable start =
  let samples = Array.map (fun _ -> Array.make reps 0) grid in
  for r = 0 to reps - 1 do
    let g = Prng.Rng.split rng in
    let state = ref (start ()) and now = ref 0 in
    Array.iteri
      (fun k t ->
        while !now < t do
          state := chain.Chain.step g !state;
          incr now
        done;
        samples.(k).(r) <- observable !state)
      grid
  done;
  samples

let profile what chain ~rng ~x0 ~y0 ~times ~reps ~observable =
  if reps <= 0 then
    invalid_arg (Printf.sprintf "Empirical.%s: reps must be positive" what);
  if List.exists (fun t -> t < 0) times then
    invalid_arg (Printf.sprintf "Empirical.%s: negative t" what);
  if times = [] then []
  else
    let grid = Array.of_list (List.sort_uniq Int.compare times) in
    (* [y0] draws its generators first: the historical estimator passed
       both samples as arguments, which OCaml evaluates right to left. *)
    let ys = sample chain ~rng ~grid ~reps ~observable y0 in
    let xs = sample chain ~rng ~grid ~reps ~observable x0 in
    let tvs =
      List.combine (Array.to_list grid)
        (Array.to_list (Array.map2 tv_between_samples xs ys))
    in
    List.map (fun t -> (t, List.assoc t tvs)) times

let observable_tv chain ~rng ~x0 ~y0 ~t ~reps ~observable =
  snd
    (List.hd
       (profile "observable_tv" chain ~rng ~x0 ~y0 ~times:[ t ] ~reps
          ~observable))

let decay_profile chain = profile "decay_profile" chain
