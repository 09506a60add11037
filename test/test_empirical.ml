(* Markov.Empirical.decay_profile samples one trajectory per repetition
   at every grid time.  These tests pin it against the oracles in
   Empirical_oracle: the historical fresh-runs estimator wherever the
   two consume the parent generator alike (a single time, and the first
   point of a profile), and the replay oracle at every time. *)

module Lv = Loadvec.Load_vector
module Mv = Loadvec.Mutable_vector
module Sr = Core.Scheduling_rule
module O = Empirical_oracle

let exactly = Alcotest.float 0.

(* Id-ABKU[2] over mutable state, as e13 drives it; [steps] counts every
   transition the chain takes. *)
let abku_setup ?(steps = ref 0) n =
  let process = Core.Dynamic_process.make Core.Scenario.A (Sr.abku 2) ~n in
  let chain =
    Markov.Chain.make (fun g v ->
        incr steps;
        Core.Dynamic_process.step_in_place process g v;
        v)
  in
  ( chain,
    (fun () -> Mv.of_load_vector (Lv.all_in_one ~n ~m:n)),
    fun () -> Mv.of_load_vector (Lv.uniform ~n ~m:n) )

let test_single_time_matches_fresh_runs () =
  let chain, x0, y0 = abku_setup 16 in
  List.iter
    (fun t ->
      let run f = f ~rng:(Prng.Rng.create ~seed:(100 + t) ()) in
      let oracle =
        run (O.observable_tv chain ~x0 ~y0 ~t ~reps:60 ~observable:Mv.max_load)
      in
      (match
         run
           (Markov.Empirical.decay_profile chain ~x0 ~y0 ~times:[ t ] ~reps:60
              ~observable:Mv.max_load)
       with
      | [ (t', tv) ] ->
          Alcotest.(check int) "time echoed" t t';
          Alcotest.check exactly (Printf.sprintf "decay_profile t=%d" t) oracle tv
      | l -> Alcotest.failf "expected one point, got %d" (List.length l));
      Alcotest.check exactly
        (Printf.sprintf "observable_tv t=%d" t)
        oracle
        (run
           (Markov.Empirical.observable_tv chain ~x0 ~y0 ~t ~reps:60
              ~observable:Mv.max_load)))
    [ 0; 1; 7; 48 ]

let test_first_point_matches_fresh_runs () =
  let chain, x0, y0 = abku_setup 16 in
  let times = [ 12; 3; 40 ] in
  let run f =
    f ~rng:(Prng.Rng.create ~seed:5 ()) ~x0 ~y0 ~times ~reps:50
      ~observable:Mv.max_load
  in
  let oracle = run (O.decay_profile chain)
  and profile = run (Markov.Empirical.decay_profile chain) in
  Alcotest.check exactly "first time point" (snd (List.hd oracle))
    (snd (List.hd profile))

let check_against_replay name chain ~x0 ~y0 ~observable =
  List.iter
    (fun (seed, times) ->
      let run f =
        f chain ~rng:(Prng.Rng.create ~seed ()) ~x0 ~y0 ~times ~reps:40
          ~observable
      in
      Alcotest.(check (list (pair int exactly)))
        (Printf.sprintf "%s seed %d" name seed)
        (run O.replay_profile)
        (run Markov.Empirical.decay_profile))
    [ (1, [ 0; 1; 4; 16; 64; 200 ]); (2, [ 64; 0; 16; 64; 5; 1; 5 ]) ]

let test_abku_matches_replay () =
  let chain, x0, y0 = abku_setup 16 in
  check_against_replay "Id-ABKU[2] n=16" chain ~x0 ~y0 ~observable:Mv.max_load

let test_rbb_matches_replay () =
  let n = 16 in
  check_against_replay "RBB uniform n=16"
    (Rbb.chain (Rbb.make Rbb.uniform ~n))
    ~x0:(fun () -> Lv.all_in_one ~n ~m:n)
    ~y0:(fun () -> Lv.uniform ~n ~m:n)
    ~observable:Lv.max_load

(* The point of one trajectory per repetition: max t steps per
   repetition and start, not the sum of the grid. *)
let test_steps_are_max_time () =
  let steps = ref 0 in
  let chain, x0, y0 = abku_setup ~steps 8 in
  let reps = 7 in
  ignore
    (Markov.Empirical.decay_profile chain ~rng:(Prng.Rng.create ~seed:3 ()) ~x0
       ~y0 ~times:[ 9; 30; 0; 30; 2 ] ~reps ~observable:Mv.max_load);
  Alcotest.(check int) "2 * reps * max t" (2 * reps * 30) !steps

let qcheck_order_and_duplicates =
  QCheck.Test.make ~name:"decay_profile keeps order, duplicates share a value"
    ~count:100
    QCheck.(pair small_int (list_of_size Gen.(1 -- 8) (int_range 0 30)))
    (fun (seed, ts) ->
      (* Always a 0 and a duplicate, in no particular order. *)
      let times = ts @ (0 :: List.rev ts) in
      let chain = Markov.Chain.make (fun g s -> abs (s + Prng.Rng.int g 3 - 1)) in
      let run f =
        f chain ~rng:(Prng.Rng.create ~seed ())
          ~x0:(fun () -> 0)
          ~y0:(fun () -> 5)
          ~times ~reps:10 ~observable:Fun.id
      in
      let profile = run Markov.Empirical.decay_profile in
      List.map fst profile = times
      && List.for_all
           (fun (t, tv) ->
             List.for_all (fun (t', tv') -> t <> t' || tv = tv') profile)
           profile
      && profile = run O.replay_profile)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("one time = fresh-runs oracle", test_single_time_matches_fresh_runs);
      ("first point = fresh-runs oracle", test_first_point_matches_fresh_runs);
      ("Id-ABKU[2] profile = replay oracle", test_abku_matches_replay);
      ("RBB profile = replay oracle", test_rbb_matches_replay);
      ("steps per repetition = max t", test_steps_are_max_time);
    ]
  @ [ QCheck_alcotest.to_alcotest qcheck_order_and_duplicates ]
