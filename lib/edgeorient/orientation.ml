(* count_by_diff.(d + n) = number of vertices with discrepancy d.  The
   extremes move by at most one per orientation, so min/max pointers are
   maintained in O(1) amortized. *)
type t = {
  n : int;
  diffs : int array;
  count_by_diff : int array;  (* index = diff + n *)
  mutable max_diff : int;
  mutable min_diff : int;
  mutable edges_seen : int;
}

let create ~n =
  if n < 2 then invalid_arg "Orientation.create: need n >= 2";
  let count_by_diff = Array.make ((2 * n) + 1) 0 in
  count_by_diff.(n) <- n;
  {
    n;
    diffs = Array.make n 0;
    count_by_diff;
    max_diff = 0;
    min_diff = 0;
    edges_seen = 0;
  }

let check_values ~who n values =
  if Array.fold_left ( + ) 0 values <> 0 then
    invalid_arg (who ^ ": values must sum to 0");
  Array.iter
    (fun d -> if abs d > n then invalid_arg (who ^ ": outside +-n window"))
    values

(* Unchecked in-place install of a discrepancy vector. *)
let install t values =
  Array.blit values 0 t.diffs 0 t.n;
  Array.fill t.count_by_diff 0 ((2 * t.n) + 1) 0;
  Array.iter
    (fun d -> t.count_by_diff.(d + t.n) <- t.count_by_diff.(d + t.n) + 1)
    values;
  t.max_diff <- Array.fold_left Stdlib.max values.(0) values;
  t.min_diff <- Array.fold_left Stdlib.min values.(0) values

let of_discrepancies values =
  let n = Array.length values in
  if n < 2 then invalid_arg "Orientation.of_discrepancies: need n >= 2";
  check_values ~who:"Orientation.of_discrepancies" n values;
  let t = create ~n in
  install t values;
  t

let restore t values =
  if Array.length values <> t.n then
    invalid_arg "Orientation.restore: dimension mismatch";
  check_values ~who:"Orientation.restore" t.n values;
  install t values;
  t.edges_seen <- 0

let adversarial ~n =
  if n < 2 then invalid_arg "Orientation.adversarial: need n >= 2";
  let extreme = (n + 1) / 2 in
  let values = Array.make n 0 in
  let pairs = n / 2 in
  for k = 0 to pairs - 1 do
    values.(2 * k) <- extreme;
    values.((2 * k) + 1) <- -extreme
  done;
  of_discrepancies values

let copy t =
  {
    t with
    diffs = Array.copy t.diffs;
    count_by_diff = Array.copy t.count_by_diff;
  }

let n t = t.n

let discrepancy t v =
  if v < 0 || v >= t.n then invalid_arg "Orientation.discrepancy: bad vertex";
  t.diffs.(v)

let discrepancies t = Array.copy t.diffs
let edges_seen t = t.edges_seen

let unfairness t = Stdlib.max t.max_diff (-t.min_diff)

let shift t v delta =
  let d = t.diffs.(v) in
  let d' = d + delta in
  if abs d' > t.n then invalid_arg "Orientation: discrepancy window overflow";
  t.count_by_diff.(d + t.n) <- t.count_by_diff.(d + t.n) - 1;
  t.count_by_diff.(d' + t.n) <- t.count_by_diff.(d' + t.n) + 1;
  t.diffs.(v) <- d';
  if d' > t.max_diff then t.max_diff <- d';
  if d' < t.min_diff then t.min_diff <- d';
  if d = t.max_diff && t.count_by_diff.(d + t.n) = 0 && d' < d then
    t.max_diff <- d - 1;
  if d = t.min_diff && t.count_by_diff.(d + t.n) = 0 && d' > d then
    t.min_diff <- d + 1

let orient t ~src ~dst =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src = dst then
    invalid_arg "Orientation.orient: bad endpoints";
  shift t src 1;
  shift t dst (-1);
  t.edges_seen <- t.edges_seen + 1

let greedy_step g t =
  let a, b = Prng.Rng.pair_distinct g t.n in
  let da = t.diffs.(a) and db = t.diffs.(b) in
  let src, dst =
    if da < db then (a, b)
    else if db < da then (b, a)
    else if Prng.Rng.bool g then (a, b)
    else (b, a)
  in
  orient t ~src ~dst

let run g t ~steps =
  if steps < 0 then invalid_arg "Orientation.run: negative steps";
  for _ = 1 to steps do
    greedy_step g t
  done

(* Two endpoint inspections per edge. *)
let sim ?metrics t =
  Engine.Sim.make ?metrics
    ~step:(fun g ->
      greedy_step g t;
      2)
    ~observe:(fun () -> discrepancies t)
    ~reset:(fun values -> restore t values)
    ~probe:(fun () -> unfairness t)
    ()
