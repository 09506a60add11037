let count ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Partition_space.count";
  (* p(m, k): partitions of m into at most k parts.
     p(m, k) = p(m, k-1) + p(m-k, k). *)
  let k_max = Stdlib.min n m in
  let table = Array.make_matrix (m + 1) (k_max + 1) 0 in
  for k = 0 to k_max do
    table.(0).(k) <- 1
  done;
  for mm = 1 to m do
    for k = 1 to k_max do
      table.(mm).(k) <-
        table.(mm).(k - 1) + (if mm >= k then table.(mm - k).(k) else 0)
    done
  done;
  table.(m).(k_max)

(* Depth-first over the parts, left to right, each part no larger than
   the one before it and tried largest first: the leaves come out in
   lexicographically decreasing order, which is the order promised, so
   each one is written straight into its slot. *)
let enumerate ~n ~m =
  if n <= 0 || m < 0 then invalid_arg "Partition_space.enumerate";
  let top = Loadvec.Load_vector.all_in_one ~n ~m in
  let states = Array.make (count ~n ~m) top in
  let parts = Array.make n 0 in
  let next = ref 0 in
  (* Fill [parts.(pos..)] with [remaining] balls, parts at most [cap]. *)
  let rec go pos remaining cap =
    if remaining = 0 then begin
      states.(!next) <- Loadvec.Load_vector.of_sorted parts;
      incr next
    end
    else if pos < n then begin
      (* A part of size [p] at least ceil(remaining / slots), so the
         rest fits in the remaining slots under the cap [p]. *)
      let slots = n - pos in
      for p = Stdlib.min cap remaining downto (remaining + slots - 1) / slots do
        parts.(pos) <- p;
        go (pos + 1) (remaining - p) p
      done;
      parts.(pos) <- 0
    end
  in
  go 0 m m;
  states
