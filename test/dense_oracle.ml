(* Dense reference for the exact layer.  The transition matrix is a full
   row-major array built straight from a state enumeration and a
   transition function — never through Blocked_csr — so it can catch a
   bug in the blocked build.  On top of it sit the historical power
   iteration (successive-iterate stopping rule) and the step-by-step
   mixing scan over dense powers P^t.  Quadratic storage and a cubic
   product per step: for small test chains only. *)

module Matrix = struct
  type t = { rows : int; cols : int; data : float array }

  let create ~rows ~cols =
    if rows <= 0 || cols <= 0 then
      invalid_arg "Matrix.create: non-positive size";
    { rows; cols; data = Array.make (rows * cols) 0. }

  let identity n =
    let m = create ~rows:n ~cols:n in
    for i = 0 to n - 1 do
      m.data.((i * n) + i) <- 1.
    done;
    m

  let check m i j =
    if i < 0 || i >= m.rows || j < 0 || j >= m.cols then
      invalid_arg "Matrix: index out of bounds"

  let get m i j =
    check m i j;
    m.data.((i * m.cols) + j)

  let set m i j x =
    check m i j;
    m.data.((i * m.cols) + j) <- x

  let mul a b =
    if a.cols <> b.rows then invalid_arg "Matrix.mul: dimension mismatch";
    let c = create ~rows:a.rows ~cols:b.cols in
    for i = 0 to a.rows - 1 do
      for k = 0 to a.cols - 1 do
        let aik = a.data.((i * a.cols) + k) in
        if aik <> 0. then
          for j = 0 to b.cols - 1 do
            c.data.((i * c.cols) + j) <-
              c.data.((i * c.cols) + j) +. (aik *. b.data.((k * b.cols) + j))
          done
      done
    done;
    c

  let vec_mul v m =
    if Array.length v <> m.rows then
      invalid_arg "Matrix.vec_mul: dimension mismatch";
    let out = Array.make m.cols 0. in
    for i = 0 to m.rows - 1 do
      if v.(i) <> 0. then
        for j = 0 to m.cols - 1 do
          out.(j) <- out.(j) +. (v.(i) *. m.data.((i * m.cols) + j))
        done
    done;
    out

  let row m i = Array.sub m.data (i * m.cols) m.cols

  let is_stochastic ?(tol = 1e-9) m =
    let ok = ref true in
    for i = 0 to m.rows - 1 do
      let r = row m i in
      if Array.exists (fun x -> x < -.tol) r then ok := false;
      if Float.abs (Array.fold_left ( +. ) 0. r -. 1.) > tol then ok := false
    done;
    !ok

  let max_abs_diff a b =
    if a.rows <> b.rows || a.cols <> b.cols then
      invalid_arg "Matrix.max_abs_diff: dimension mismatch";
    let best = ref 0. in
    Array.iteri
      (fun k x -> best := Float.max !best (Float.abs (x -. b.data.(k))))
      a.data;
    !best
end

(* P(i, j) summed over every listing of states.(j) in transitions
   states.(i), states compared structurally. *)
let of_chain ~states ~transitions =
  let n = Array.length states in
  let index = Hashtbl.create n in
  Array.iteri (fun i s -> Hashtbl.replace index s i) states;
  let m = Matrix.create ~rows:n ~cols:n in
  Array.iteri
    (fun i s ->
      List.iter
        (fun (s', p) ->
          let j = Hashtbl.find index s' in
          Matrix.set m i j (Matrix.get m i j +. p))
        (transitions s))
    states;
  m

(* Read a blocked store back as a dense matrix, one unit-vector product
   per row: [e_i · P] is row i exactly, since rows with zero input are
   skipped and 1 · p = p. *)
let of_blocked b =
  let n = Markov.Blocked_csr.rows b and cols = Markov.Blocked_csr.cols b in
  let k = Markov.Blocked_csr.kernel b in
  let m = Matrix.create ~rows:n ~cols in
  let src = Array.make n 0. and dst = Array.make cols 0. in
  for i = 0 to n - 1 do
    src.(i) <- 1.;
    Markov.Blocked_csr.spmv k ~src ~dst;
    src.(i) <- 0.;
    Array.blit dst 0 m.Matrix.data (i * cols) cols
  done;
  m

let stationary ?(tol = 1e-12) (m : Matrix.t) =
  let dist = ref (Array.make m.rows (1. /. float_of_int m.rows)) in
  let rec go iter =
    if iter > 1_000_000 then
      failwith "Dense_oracle.stationary: did not converge";
    let next = Matrix.vec_mul !dist m in
    let d = Markov.Exact.tv_distance !dist next in
    dist := next;
    if d > tol then go (iter + 1)
  in
  go 0;
  !dist

let mixing_time ?(eps = 0.25) (m : Matrix.t) =
  let pi = stationary m in
  (* Evolve all start distributions together: the rows of P^t. *)
  let rec go t current =
    if t > 100_000 then failwith "Dense_oracle.mixing_time: not mixed";
    let worst = ref 0. in
    for start = 0 to m.rows - 1 do
      worst :=
        Float.max !worst (Markov.Exact.tv_distance (Matrix.row current start) pi)
    done;
    if !worst <= eps then t else go (t + 1) (Matrix.mul current m)
  in
  go 0 (Matrix.identity m.rows)
