module Mv = Loadvec.Mutable_vector

type t = {
  insert_probability : float;
  rule : Scheduling_rule.t;
  n : int;
  capacity : int option;
}

let make ?(insert_probability = 0.5) ?capacity rule ~n =
  if n <= 0 then invalid_arg "Open_process.make: n must be positive";
  if not (insert_probability > 0. && insert_probability < 1.) then
    invalid_arg "Open_process.make: probability must be in (0,1)";
  (match capacity with
  | Some c when c < 1 -> invalid_arg "Open_process.make: capacity must be >= 1"
  | _ -> ());
  { insert_probability; rule; n; capacity }

let n t = t.n
let capacity t = t.capacity

let name t =
  Printf.sprintf "Open(p=%.2f, %s%s)" t.insert_probability
    (Scheduling_rule.name t.rule)
    (match t.capacity with
    | None -> ""
    | Some c -> Printf.sprintf ", cap=%d" c)

let below_capacity t current =
  match t.capacity with None -> true | Some c -> current < c

let step t g bins =
  if Prng.Rng.float g < t.insert_probability then begin
    if below_capacity t (Bins.num_balls bins) then
      ignore (Bins.insert_with_rule t.rule g bins)
  end
  else if Bins.num_balls bins > 0 then ignore (Bins.remove_ball_uniform g bins)

(* One normalized step driven by explicit variates so the coupling can
   share them: [coin] decides insert/remove, [u] drives the removal
   inverse CDF, [probe] drives the insertion. *)
let step_with t v ~coin ~u ~probe =
  if coin < t.insert_probability then begin
    if below_capacity t (Mv.total v) then begin
      let rank, _ =
        Scheduling_rule.choose_rank t.rule ~loads:(Mv.unsafe_loads v) ~probe
      in
      ignore (Mv.incr_at v rank)
    end
  end
  else if Mv.total v > 0 then
    ignore (Mv.decr_at v (Scenario.remove_rank Scenario.A v ~u))

let step_normalized t g v =
  let coin = Prng.Rng.float g in
  let u = Prng.Rng.float g in
  let probe = Probe.create g ~n:t.n in
  step_with t v ~coin ~u ~probe

let sim ?metrics t v =
  if Mv.dim v <> t.n then invalid_arg "Open_process.sim: dimension mismatch";
  Engine.Sim.make ?metrics
    ~step:(fun g ->
      let coin = Prng.Rng.float g in
      let u = Prng.Rng.float g in
      let probe = Probe.create g ~n:t.n in
      step_with t v ~coin ~u ~probe;
      Probe.consumed probe)
    ~observe:(fun () -> Mv.to_load_vector v)
    ~reset:(fun lv -> Mv.set_from_load_vector v lv)
    ~probe:(fun () -> Mv.max_load v)
    ()

(* [(move lv r, scale *. law.(r))] for every rank [r] of positive mass,
   in rank order.  [move] depends on [r] only through its value class
   (Fact 3.2), so the ranks of one class share one successor array. *)
let rank_outcomes lv law ~move ~scale =
  let module Lv = Loadvec.Load_vector in
  let out = ref [] and succ = ref lv and succ_load = ref (-1) in
  for r = Array.length law - 1 downto 0 do
    let pr = law.(r) in
    if pr > 0. then begin
      let l = Lv.get lv r in
      if l <> !succ_load then begin
        succ := move lv r;
        succ_load := l
      end;
      out := (!succ, scale *. pr) :: !out
    end
  done;
  !out

let exact_transitions t =
  let module Lv = Loadvec.Load_vector in
  (* ABKU's insertion law reads only n, not the loads. *)
  let abku_law =
    match t.rule with
    | Scheduling_rule.Abku _ ->
        Some
          (Scheduling_rule.rank_distribution t.rule ~loads:(Array.make t.n 0))
    | Scheduling_rule.Adap _ -> None
  in
  fun lv ->
    if Lv.dim lv <> t.n then
      invalid_arg "Open_process.exact_transitions: dimension mismatch";
    (match t.capacity with
    | Some c when Lv.total lv > c ->
        invalid_arg "Open_process.exact_transitions: state above capacity"
    | _ -> ());
    let p = t.insert_probability in
    let insert_part =
      if below_capacity t (Lv.total lv) then
        let law =
          match abku_law with
          | Some law -> law
          | None ->
              Scheduling_rule.rank_distribution t.rule ~loads:(Lv.to_array lv)
        in
        rank_outcomes lv law ~move:Lv.oplus ~scale:p
      else [ (lv, p) ]
    in
    let remove_part =
      if Lv.total lv > 0 then
        rank_outcomes lv
          (Scenario.removal_distribution Scenario.A ~loads:(Lv.to_array lv))
          ~move:Lv.ominus ~scale:(1. -. p)
      else [ (lv, 1. -. p) ]
    in
    insert_part @ remove_part

let coupled t =
  let step g x y =
    let coin = Prng.Rng.float g in
    let u = Prng.Rng.float g in
    let probe = Probe.create g ~n:t.n in
    step_with t x ~coin ~u ~probe;
    step_with t y ~coin ~u ~probe;
    (x, y)
  in
  Coupling.Coupled_chain.make ~step ~equal:Mv.equal ~distance:(fun a b ->
      (Mv.l1_distance a b + 1) / 2)
