(* The simulation part: (i) Id-ABKU[2] recovery from one full bin,
   (ii) the E13 max-load TV decay for Id- and Ib-ABKU[2], and (iii) RBB
   self-stabilisation.  Generator, steppers, engine and
   Markov.Empirical do all the work here. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule

let rec_n = 32768  (* recovery: n = m *)
let rec_reps = 2  (* recovery: repetitions per backend *)
let tv_n = 64  (* TV decay: n = m *)

(* The TV check compares a plug-in estimate from [tv_reps] samples per
   start with 1/4.  With 60 reps sampling noise took the estimate at the
   theorem's time past 1/4 in about one check in a few hundred; at 120
   reps 1/4 is about five standard deviations above its mean (README.md,
   "Why 120 TV reps"). *)
let tv_reps = 120
let rbb_n = 1024  (* RBB: n = m *)
let rbb_reps = 4  (* RBB: repetitions per rule *)

type result = {
  recovery_s : float;
  tv_decay_s : float;
  rbb_s : float;
  recovery_metrics : Engine.Metrics.snapshot;
  rbb_metrics : Engine.Metrics.snapshot;
  tv_steps : int;  (* chain steps the TV profiles simulated *)
}

let timed f =
  let t0 = Tr.now_ns () in
  let v = f () in
  (v, float_of_int (Tr.now_ns () - t0) *. 1e-9)

(* Independent generator per sub-part, derived from the workload seed. *)
let rng ~seed k = Prng.Rng.create ~seed:((seed * 1_000_003) + k) ()

let abku2 = Sr.abku 2

(* The E13 grid: powers of 4 up to twice the theorem's scale, plus the
   scale itself. *)
let tv_times scale =
  let limit = 2 * scale in
  let rec go t acc = if t > limit then List.rev acc else go (t * 4) (t :: acc) in
  List.sort_uniq compare (scale :: go 1 [])

let recovery ~seed ~check =
  let n = rec_n in
  let spec = { Core.Recovery.scenario = Core.Scenario.A; rule = abku2; n; m = n } in
  let target =
    Fluid.Mean_field.predicted_max_load ~n
      (Fluid.Mean_field.fixed_point_a ~d:2 ~m_over_n:1. ~levels:40)
    + 1
  in
  let limit = 200 * int_of_float (Theory.Bounds.recovery_a_steps ~n) in
  List.fold_left
    (fun acc (k, repr) ->
      let meas, m =
        Tr.span "core.recovery.measure" (fun () ->
            Core.Recovery.measure_with_metrics ~repr ~rng:(rng ~seed k)
              ~reps:rec_reps spec ~target ~limit)
      in
      Check.record check ~attempted:rec_reps
        ~failed:meas.Engine.Runner.failures
        (Printf.sprintf "recovery n=%d %s: step limit hit" n (Core.Repr.name repr));
      Engine.Metrics.merge acc m)
    Engine.Metrics.zero
    [ (1, Core.Repr.Array_backed); (2, Core.Repr.Count_sampled) ]

let tv_decay ~seed ~check =
  let n = tv_n and m = tv_n in
  let steps = ref 0 in
  List.iter
    (fun (k, scenario, scale) ->
      let process = Core.Dynamic_process.make scenario abku2 ~n in
      (* The benchmark's own chain closure counts every simulated step. *)
      let steps0 = !steps in
      let step g v =
        incr steps;
        Core.Dynamic_process.step_in_place process g v;
        v
      in
      let times = tv_times scale in
      let decay chain =
        Markov.Empirical.decay_profile chain ~rng:(rng ~seed k)
          ~x0:(fun () -> Mv.of_load_vector (Lv.all_in_one ~n ~m))
          ~y0:(fun () -> Mv.of_load_vector (Lv.uniform ~n ~m))
          ~times ~reps:tv_reps ~observable:Mv.max_load
      in
      (* A span per step would cost more than Empirical's own work per
         step, so the traced run measures that work on the same grid
         over a chain whose step is free, and credits the rest of the
         decay_profile time to the steps. *)
      let own_ns =
        if not !Tr.enabled then 0
        else
          let t0 = Tr.now_ns () in
          ignore (decay (Markov.Chain.make (fun _ v -> v)));
          Tr.now_ns () - t0
      in
      let profile =
        Tr.span "markov.empirical.decay_profile" (fun () ->
            let t0 = Tr.now_ns () in
            let p = decay (Markov.Chain.make step) in
            Tr.add_child "core.dynamic_process.step_in_place"
              ~count:(!steps - steps0) ~ns:(Tr.now_ns () - t0 - own_ns);
            p)
      in
      let name = Core.Dynamic_process.name process in
      Check.expect check
        (List.assoc_opt 1 profile = Some 1.)
        (Printf.sprintf "TV decay %s n=%d: TV at t=1 is not 1" name n);
      Check.expect check
        (match List.assoc_opt scale profile with
        | Some tv -> tv <= 0.25
        | None -> false)
        (Printf.sprintf "TV decay %s n=%d: TV at t=%d exceeds 1/4" name n scale))
    [
      (3, Core.Scenario.A, int_of_float (Theory.Bounds.theorem1 ~m ~eps:0.25));
      (4, Core.Scenario.B, int_of_float (Theory.Bounds.scenario_b_improved ~m));
    ];
  !steps

let rbb ~seed ~check =
  let n = rbb_n in
  let target = int_of_float (Float.ceil (2. *. log (float_of_int n))) in
  List.fold_left
    (fun acc (k, rule) ->
      let p = Rbb.make rule ~n in
      let meas, m =
        Tr.span "engine.runner.measure" (fun () ->
            Engine.Runner.measure ~rng:(rng ~seed k) ~reps:rbb_reps
              ~limit:(50 * n) (fun g metrics ~limit ->
                let s =
                  Tr.span "rbb.sim_repr" (fun () ->
                      Rbb.sim_repr ~metrics ~repr:Core.Repr.Count_sampled p
                        (Lv.all_in_one ~n ~m:n))
                in
                Tr.span "engine.sim.first_hit" (fun () ->
                    Engine.Sim.first_hit s g ~pred:(fun ml -> ml <= target) ~limit)))
      in
      Check.record check ~attempted:rbb_reps
        ~failed:meas.Engine.Runner.failures
        (Printf.sprintf "RBB %s n=%d: max load never reached %d" (Rbb.name p) n
           target);
      Engine.Metrics.merge acc m)
    Engine.Metrics.zero
    [ (5, Rbb.uniform); (6, Rbb.dchoice 2) ]

(* The array and counts steppers consume the generator in the same
   order, so from equal states and equal generators their trajectories
   must agree exactly. *)
let twin_check ~seed ~check =
  let n = 64 and steps = 4000 in
  let p = Core.Dynamic_process.make Core.Scenario.A abku2 ~n in
  let traj repr =
    let s =
      Tr.span "core.dynamic_process.sim_repr" (fun () ->
          Core.Dynamic_process.sim_repr ~repr p (Lv.all_in_one ~n ~m:n))
    in
    Tr.span "engine.sim.trajectory" (fun () ->
        Engine.Sim.trajectory s (rng ~seed 7) steps)
  in
  let a = traj Core.Repr.Array_backed and c = traj Core.Repr.Count_backed in
  Check.expect check
    (Array.for_all2 Lv.equal a c)
    "array and counts steppers diverged from equal states"

let run ~seed ~check =
  twin_check ~seed ~check;
  let recovery_metrics, recovery_s = timed (fun () -> recovery ~seed ~check) in
  let tv_steps, tv_decay_s = timed (fun () -> tv_decay ~seed ~check) in
  let rbb_metrics, rbb_s = timed (fun () -> rbb ~seed ~check) in
  { recovery_s; tv_decay_s; rbb_s; recovery_metrics; rbb_metrics;
    tv_steps }
