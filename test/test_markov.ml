(* Tests for matrices, chains, partition spaces and exact analysis. *)

module M = Dense_oracle.Matrix
module Lv = Loadvec.Load_vector

let feq ?(tol = 1e-9) a b = Float.abs (a -. b) <= tol

let test_matrix_identity_mul () =
  let a = M.create ~rows:2 ~cols:2 in
  M.set a 0 0 1.;
  M.set a 0 1 2.;
  M.set a 1 0 3.;
  M.set a 1 1 4.;
  let i = M.identity 2 in
  Alcotest.(check (float 1e-12)) "left id" 0. (M.max_abs_diff (M.mul i a) a);
  Alcotest.(check (float 1e-12)) "right id" 0. (M.max_abs_diff (M.mul a i) a)

let test_matrix_mul_known () =
  let a = M.create ~rows:2 ~cols:3 in
  let b = M.create ~rows:3 ~cols:2 in
  (* a = [1 2 3; 4 5 6], b = [7 8; 9 10; 11 12] *)
  List.iteri (fun k x -> M.set a (k / 3) (k mod 3) x) [ 1.; 2.; 3.; 4.; 5.; 6. ];
  List.iteri (fun k x -> M.set b (k / 2) (k mod 2) x) [ 7.; 8.; 9.; 10.; 11.; 12. ];
  let c = M.mul a b in
  Alcotest.(check (float 1e-12)) "c00" 58. (M.get c 0 0);
  Alcotest.(check (float 1e-12)) "c01" 64. (M.get c 0 1);
  Alcotest.(check (float 1e-12)) "c10" 139. (M.get c 1 0);
  Alcotest.(check (float 1e-12)) "c11" 154. (M.get c 1 1)

let test_matrix_vec_mul () =
  let m = M.create ~rows:2 ~cols:2 in
  M.set m 0 0 0.5;
  M.set m 0 1 0.5;
  M.set m 1 0 1.;
  let v = M.vec_mul [| 0.4; 0.6 |] m in
  Alcotest.(check (float 1e-12)) "v0" 0.8 v.(0);
  Alcotest.(check (float 1e-12)) "v1" 0.2 v.(1)

let test_matrix_stochastic () =
  let m = M.create ~rows:2 ~cols:2 in
  M.set m 0 0 0.3;
  M.set m 0 1 0.7;
  M.set m 1 0 1.0;
  Alcotest.(check bool) "stochastic" true (M.is_stochastic m);
  M.set m 1 0 0.9;
  Alcotest.(check bool) "not stochastic" false (M.is_stochastic m)

let test_matrix_invalid () =
  Alcotest.check_raises "bad size" (Invalid_argument "Matrix.create: non-positive size")
    (fun () -> ignore (M.create ~rows:0 ~cols:2));
  let a = M.create ~rows:2 ~cols:2 and b = M.create ~rows:3 ~cols:2 in
  Alcotest.check_raises "mul mismatch"
    (Invalid_argument "Matrix.mul: dimension mismatch") (fun () ->
      ignore (M.mul a b))

(* Chain is now only the functional one-step view; driving loops live
   in Engine.Sim.  The step field composes like any function. *)
let test_chain_step_view () =
  let c = Markov.Chain.make (fun _g s -> s + 1) in
  let g = Prng.Rng.create () in
  let s = ref 0 in
  for _ = 1 to 10 do
    s := c.Markov.Chain.step g !s
  done;
  Alcotest.(check int) "10 steps" 10 !s;
  let doubler = Markov.Chain.make (fun _g s -> s * 2) in
  Alcotest.(check int) "composes" 22
    (doubler.Markov.Chain.step g (c.Markov.Chain.step g 10))

(* The randomness really flows through: a coin-flip walk driven by two
   identically-seeded generators replays; a different seed diverges. *)
let test_chain_step_uses_rng () =
  let c = Markov.Chain.make (fun g s -> s + if Prng.Rng.bool g then 1 else -1) in
  let run seed =
    let g = Prng.Rng.create ~seed () in
    let s = ref 0 in
    for _ = 1 to 100 do
      s := c.Markov.Chain.step g !s
    done;
    !s
  in
  Alcotest.(check int) "same seed replays" (run 5) (run 5);
  Alcotest.(check bool) "walk moved or cancelled, parity even" true
    ((run 5 + 100) mod 2 = 0)

let test_partition_count_small () =
  (* Partitions of 4 into at most 2 parts: 4, 3+1, 2+2. *)
  Alcotest.(check int) "p(4,2)" 3 (Markov.Partition_space.count ~n:2 ~m:4);
  (* Partitions of 5 (n >= 5): 7. *)
  Alcotest.(check int) "p(5)" 7 (Markov.Partition_space.count ~n:5 ~m:5);
  Alcotest.(check int) "m=0" 1 (Markov.Partition_space.count ~n:3 ~m:0)

let test_partition_enumerate () =
  let states = Markov.Partition_space.enumerate ~n:3 ~m:4 in
  Alcotest.(check int) "count matches" (Markov.Partition_space.count ~n:3 ~m:4)
    (Array.length states);
  Array.iter
    (fun v ->
      Alcotest.(check int) "total" 4 (Lv.total v);
      Alcotest.(check int) "dim" 3 (Lv.dim v);
      Alcotest.(check bool) "normalized" true (Lv.is_normalized (Lv.to_array v)))
    states;
  (* All distinct. *)
  let tbl = Hashtbl.create 16 in
  Array.iter (fun v -> Hashtbl.replace tbl v ()) states;
  Alcotest.(check int) "distinct" (Array.length states) (Hashtbl.length tbl)

let test_partition_count_matches_enumerate_sweep () =
  for n = 1 to 5 do
    for m = 0 to 8 do
      Alcotest.(check int)
        (Printf.sprintf "count n=%d m=%d" n m)
        (Array.length (Markov.Partition_space.enumerate ~n ~m))
        (Markov.Partition_space.count ~n ~m)
    done
  done

(* The historical enumeration — a list of part lists, each re-sorted by
   [Lv.of_array], then one final sort — kept as the oracle for the
   direct-to-array DFS. *)
let enumerate_oracle ~n ~m =
  let out = ref [] in
  let rec go acc remaining slots cap =
    if remaining = 0 then out := List.rev acc :: !out
    else if slots = 0 then ()
    else
      for p = Stdlib.min cap remaining downto 1 do
        if p * slots >= remaining then
          go (p :: acc) (remaining - p) (slots - 1) p
      done
  in
  go [] m n m;
  let to_vector parts =
    let v = Array.make n 0 in
    List.iteri (fun i p -> v.(i) <- p) parts;
    Lv.of_array v
  in
  let arr = Array.of_list (List.rev_map to_vector !out) in
  Array.sort (fun a b -> Lv.compare b a) arr;
  arr

let test_partition_enumerate_oracle () =
  List.iter
    (fun (n, m) ->
      Alcotest.(check (array (array int)))
        (Printf.sprintf "n=%d m=%d" n m)
        (Array.map Lv.to_array (enumerate_oracle ~n ~m))
        (Array.map Lv.to_array (Markov.Partition_space.enumerate ~n ~m)))
    [ (1, 0); (1, 5); (4, 0); (3, 4); (5, 12); (12, 5); (7, 7); (16, 16);
      (20, 13) ]

(* A two-state chain with known stationary distribution and mixing rate:
   P = [[1-p, p], [q, 1-q]], pi = (q, p)/(p+q). *)
let build states ~transitions =
  Markov.Exact_builder.build (Markov.Exact_builder.enumerated states)
    ~transitions

let two_state_states = [| "x"; "y" |]

let two_state_transitions p q = function
  | "x" -> [ ("x", 1. -. p); ("y", p) ]
  | _ -> [ ("x", q); ("y", 1. -. q) ]

let two_state p q =
  build two_state_states ~transitions:(two_state_transitions p q)

let test_exact_stationary_two_state () =
  let c = two_state 0.3 0.1 in
  let pi = Markov.Exact.stationary c in
  Alcotest.(check bool) "pi x" true (feq ~tol:1e-9 pi.(0) 0.25);
  Alcotest.(check bool) "pi y" true (feq ~tol:1e-9 pi.(1) 0.75)

let test_exact_tv () =
  Alcotest.(check (float 1e-12)) "tv" 0.5
    (Markov.Exact.tv_distance [| 1.; 0. |] [| 0.5; 0.5 |]);
  Alcotest.(check (float 1e-12)) "tv self" 0.
    (Markov.Exact.tv_distance [| 0.3; 0.7 |] [| 0.3; 0.7 |])

let test_exact_distribution_after () =
  let c = two_state 0.5 0.5 in
  let d = Markov.Exact.distribution_after c ~start:0 1 in
  Alcotest.(check bool) "after one step" true
    (feq d.(0) 0.5 && feq d.(1) 0.5);
  let d0 = Markov.Exact.distribution_after c ~start:0 0 in
  Alcotest.(check bool) "t=0 is point mass" true (feq d0.(0) 1.)

let test_exact_mixing_two_state () =
  (* For p = q = 1/2 the chain is exactly mixed after one step. *)
  let c = two_state 0.5 0.5 in
  Alcotest.(check int) "mixes in 1" 1 (Markov.Exact.mixing_time ~eps:0.01 c);
  (* Slow chain mixes slower. *)
  let slow = two_state 0.05 0.05 in
  Alcotest.(check bool) "slow chain slower" true
    (Markov.Exact.mixing_time ~eps:0.01 slow > 5)

let test_exact_mixing_monotone_eps () =
  let c = two_state 0.2 0.3 in
  let t1 = Markov.Exact.mixing_time ~eps:0.25 c in
  let t2 = Markov.Exact.mixing_time ~eps:0.01 c in
  Alcotest.(check bool) "smaller eps, larger tau" true (t2 >= t1)

let test_exact_build_invalid () =
  Alcotest.check_raises "bad row" (Invalid_argument "Exact.build: row does not sum to 1")
    (fun () ->
      ignore
        (build [| 0 |] ~transitions:(fun _ -> [ (0, 0.5) ])));
  Alcotest.check_raises "unknown successor"
    (Invalid_argument "Exact.build: successor outside state space") (fun () ->
      ignore
        (build [| 0 |] ~transitions:(fun _ -> [ (1, 1.) ])));
  Alcotest.check_raises "negative mass"
    (Invalid_argument "Exact.build: negative probability") (fun () ->
      ignore
        (Markov.Exact_builder.build
           (Markov.Exact_builder.reachable ~root:0)
           ~transitions:(fun _ -> [ (0, 1.5); (1, -0.5) ])))

let test_exact_build_merges_duplicates () =
  let c =
    build [| 0; 1 |] ~transitions:(function
      | 0 -> [ (1, 0.5); (1, 0.5) ]
      | _ -> [ (0, 1.) ])
  in
  Alcotest.(check int) "one entry per row" 2
    (Markov.Blocked_csr.nnz (Markov.Exact.blocked c));
  Alcotest.(check (float 1e-12)) "merged" 1.
    (M.get (Dense_oracle.of_blocked (Markov.Exact.blocked c)) 0 1)

let test_blocked_row_normalization () =
  (* Rows given out of order with duplicate coordinates and an explicit
     zero: the builder sorts, merges and drops. *)
  let bld = Markov.Blocked_csr.builder () in
  Markov.Blocked_csr.add_row bld [ (2, 0.25); (0, 0.5); (2, 0.25); (1, 0.) ];
  Markov.Blocked_csr.add_row bld [ (1, 1.) ];
  Markov.Blocked_csr.add_row bld [ (1, 1.) ];
  let b = Markov.Blocked_csr.finish bld ~cols:3 in
  Alcotest.(check int) "nnz" 4 (Markov.Blocked_csr.nnz b);
  Alcotest.(check int) "rows" 3 (Markov.Blocked_csr.rows b);
  Alcotest.(check int) "cols" 3 (Markov.Blocked_csr.cols b);
  Alcotest.(check (array (float 0.))) "row 0 merged" [| 0.5; 0.; 0.5 |]
    (M.row (Dense_oracle.of_blocked b) 0);
  Alcotest.(check bool) "row sums" true
    (Array.for_all (fun x -> feq x 1.) (Markov.Blocked_csr.row_sums b));
  Alcotest.(check bool) "stochastic" true (Markov.Blocked_csr.is_stochastic b);
  let bld = Markov.Blocked_csr.builder () in
  Markov.Blocked_csr.add_row bld [ (0, 0.25); (0, 0.25); (2, 0.5) ];
  Markov.Blocked_csr.add_row bld [ (1, 1.) ];
  let t = Markov.Blocked_csr.finish bld ~cols:3 in
  Alcotest.(check int) "duplicates merge" 3 (Markov.Blocked_csr.nnz t);
  Alcotest.(check bool) "rectangular is not stochastic" true
    (not (Markov.Blocked_csr.is_stochastic t))

(* Satellite regression: the historical stopping rule "successive
   iterates are close" stops far from pi on a slowly-mixing chain.  For
   P = [[1-p, p], [q, 1-q]] with p = 0.004, q = 0.001, pi = (0.2, 0.8)
   but the iterate drifts from (0.5, 0.5) by at most ~(p+q)/2 per step,
   so at tol = 1e-3 the old rule (kept in the dense oracle) stops near
   (0.4, 0.6).
   The gap-corrected residual rule must keep iterating until the true
   error is ~tol. *)
let test_exact_stationary_near_reducible () =
  let c = two_state 0.004 0.001 in
  let pi = Markov.Exact.stationary ~tol:1e-3 c in
  Alcotest.(check bool)
    (Printf.sprintf "gap-corrected pi0 %.4f within 1e-2 of 0.2" pi.(0))
    true
    (Float.abs (pi.(0) -. 0.2) <= 1e-2);
  (* The true residual is below tol as well. *)
  let pi_step = Array.make 2 0. in
  Markov.Blocked_csr.spmv
    (Markov.Blocked_csr.kernel (Markov.Exact.blocked c))
    ~src:pi ~dst:pi_step;
  Alcotest.(check bool) "residual |piP - pi| <= tol" true
    (Markov.Exact.tv_distance pi pi_step *. 2. <= 1e-3);
  let old =
    Dense_oracle.stationary ~tol:1e-3
      (Dense_oracle.of_chain ~states:two_state_states
         ~transitions:(two_state_transitions 0.004 0.001))
  in
  Alcotest.(check bool)
    (Printf.sprintf "historical rule stops early (pi0 %.4f)" old.(0))
    true
    (Float.abs (old.(0) -. 0.2) > 0.05)

let test_exact_stationary_cache () =
  let c = two_state 0.3 0.1 in
  let pi1 = Markov.Exact.stationary c in
  let pi2 = Markov.Exact.stationary c in
  Alcotest.(check bool) "cached result identical" true
    (Array.for_all2 (fun a b -> a = b) pi1 pi2);
  (* A looser request reuses the tighter cached value bit-identically. *)
  let pi3 = Markov.Exact.stationary ~tol:1e-6 c in
  Alcotest.(check bool) "looser tol served from cache" true
    (Array.for_all2 (fun a b -> a = b) pi1 pi3)

let test_exact_accessors () =
  let c = two_state 0.3 0.1 in
  let sts = Markov.Exact.states c in
  Alcotest.(check (array string)) "states in index order" [| "x"; "y" |] sts;
  Alcotest.(check int) "nnz" 4 (Markov.Blocked_csr.nnz (Markov.Exact.blocked c));
  Alcotest.(check (float 0.)) "blocked store = dense oracle" 0.
    (M.max_abs_diff
       (Dense_oracle.of_blocked (Markov.Exact.blocked c))
       (Dense_oracle.of_chain ~states:two_state_states
          ~transitions:(two_state_transitions 0.3 0.1)))

let test_builder_reachable_and_mix () =
  (* A 4-cycle plus an unreachable island: BFS from 0 finds the cycle in
     discovery order and build_mix agrees with the direct pipeline. *)
  let transitions i =
    [ ((i + 1) mod 4, 0.5); (i, 0.5) ]
  in
  let states = Markov.Exact_builder.reachable_states ~root:0 ~transitions () in
  Alcotest.(check (array int)) "BFS discovery order" [| 0; 1; 2; 3 |] states;
  let a =
    Markov.Exact_builder.build_mix ~eps:0.25
      (Markov.Exact_builder.reachable ~root:0)
      ~transitions
  in
  Alcotest.(check int) "state count" 4 a.Markov.Exact_builder.state_count;
  let direct = Markov.Exact.mixing_time ~eps:0.25 (build states ~transitions) in
  Alcotest.(check int) "tau agrees with enumerated build" direct
    a.Markov.Exact_builder.tau;
  Alcotest.(check bool) "timings non-negative" true
    (a.Markov.Exact_builder.build_seconds >= 0.
    && a.Markov.Exact_builder.mix_seconds >= 0.)

let test_worst_tv_profile_drop_below () =
  let c = two_state 0.2 0.3 in
  let exact = Markov.Exact.worst_tv_profile c ~max_t:40 in
  let dropped = Markov.Exact.worst_tv_profile ~drop_below:1e-9 c ~max_t:40 in
  Alcotest.(check bool) "profiles within drop_below" true
    (Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-9) exact dropped)

module Si = Markov.State_index
module B = Markov.Blocked_csr
module Ck = Markov.Exact_checkpoint

let test_state_index_basics () =
  let hash, equal = Si.structural () in
  let idx = Si.create ~hash ~equal 2 in
  (* Insert enough states to force several growths past the initial
     capacity; ids must come out in first-seen order. *)
  for i = 0 to 99 do
    Alcotest.(check int) "fresh id" i (Si.add idx (i * 7))
  done;
  Alcotest.(check int) "size" 100 (Si.size idx);
  Alcotest.(check int) "re-add returns existing id" 42 (Si.add idx (42 * 7));
  Alcotest.(check int) "size unchanged" 100 (Si.size idx);
  Alcotest.(check (option int)) "find hit" (Some 3) (Si.find idx 21);
  Alcotest.(check (option int)) "find miss" None (Si.find idx 1_000_000);
  Alcotest.(check int) "get" 14 (Si.get idx 2);
  let arr = Si.to_array idx in
  Alcotest.(check int) "to_array length" 100 (Array.length arr);
  Alcotest.(check bool) "to_array in id order" true
    (Array.for_all2 (fun a b -> a = b) arr (Array.init 100 (fun i -> i * 7)))

(* A deterministic pseudo-random stochastic matrix with irregular row
   fill, for roundtrip checks. *)
let stochastic_row n i =
  let k = 1 + (i mod 4) in
  let cols = List.init k (fun j -> ((i * 13) + (j * 7) + 1) mod n) in
  let cols = List.sort_uniq compare cols in
  let w = 1. /. float_of_int (List.length cols) in
  List.map (fun j -> (j, w)) cols

let blocked_of_rows ?spill ~block_rows n row =
  let bld = B.builder ~block_rows ?spill () in
  for i = 0 to n - 1 do
    B.add_row bld (row i)
  done;
  B.finish bld ~cols:n

let bits_equal a b =
  Array.for_all2
    (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    a b

(* [b] against [reference]: same nnz and row sums, and bit-identical
   products for a fixed input. *)
let check_same_blocked msg reference b =
  let n = B.rows reference in
  Alcotest.(check int) (msg ^ ": nnz") (B.nnz reference) (B.nnz b);
  Alcotest.(check bool) (msg ^ ": row sums") true
    (bits_equal (B.row_sums reference) (B.row_sums b));
  let src = Array.init n (fun i -> float_of_int ((i * 5) mod 7) /. 21.) in
  let spmv m =
    let dst = Array.make n nan in
    B.spmv (B.kernel m) ~src ~dst;
    dst
  in
  Alcotest.(check bool) (msg ^ ": spmv bits") true
    (bits_equal (spmv reference) (spmv b))

let test_blocked_roundtrip () =
  let n = 17 in
  let row = stochastic_row n in
  let one_block = blocked_of_rows ~block_rows:n n row in
  let dense =
    Dense_oracle.of_chain ~states:(Array.init n Fun.id) ~transitions:row
  in
  Alcotest.(check (float 0.)) "one block = dense oracle" 0.
    (M.max_abs_diff (Dense_oracle.of_blocked one_block) dense);
  List.iter
    (fun block_rows ->
      let b = blocked_of_rows ~block_rows n row in
      Alcotest.(check int) "rows" n (B.rows b);
      Alcotest.(check int) "cols" n (B.cols b);
      Alcotest.(check int)
        (Printf.sprintf "block_count br=%d" block_rows)
        ((n + block_rows - 1) / block_rows)
        (B.block_count b);
      Alcotest.(check bool) "in memory" true (B.in_memory b);
      Alcotest.(check bool) "stochastic" true (B.is_stochastic b);
      check_same_blocked (Printf.sprintf "br=%d" block_rows) one_block b)
    [ 1; 3; n; 2 * n ]

let test_blocked_spill_roundtrip () =
  let n = 11 in
  let row = stochastic_row n in
  let mem = blocked_of_rows ~block_rows:4 n row in
  let path = Filename.temp_file "bcsr" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let b = blocked_of_rows ~block_rows:4 ~spill:path n row in
      Alcotest.(check bool) "spilled, not in memory" false (B.in_memory b);
      Alcotest.(check (option string)) "path recorded" (Some path) (B.path b);
      check_same_blocked "spilled" mem b;
      (* Fused statistic on the streaming (disk) path. *)
      let pi = Array.make n (1. /. float_of_int n) in
      let src = Array.init n (fun i -> if i = 0 then 1. else 0.) in
      let step_tv m = B.step_tv (B.kernel m) ~pi ~src ~dst:(Array.make n nan) in
      Alcotest.(check bool) "fused tv on disk path" true
        (Float.equal (step_tv mem) (step_tv b));
      B.close b;
      (* Reopening the finalized file restores the matrix. *)
      let reopened = B.open_file path in
      check_same_blocked "reopened" mem reopened;
      B.close reopened)

let test_blocked_multi_bitwise () =
  (* The batched kernel must reproduce the single-vector fused products
     bit for bit, vector by vector — dst contents and TV statistics —
     across several chained steps, for both in-memory and mixed batch
     widths.  This is the contract the batched sweeps in Exact (TV
     profiles, mixing pruning) rely on for their exactness claims. *)
  let n = 37 in
  let b = blocked_of_rows ~block_rows:5 n (stochastic_row n) in
  let kern = B.kernel b in
  let pi = Array.init n (fun i -> float_of_int (1 + (i mod 3)) /. 74.) in
  (* Not a distribution; irrelevant — only summation order matters. *)
  List.iter
    (fun nb ->
      let mk_start v =
        let a = Array.make n 0. in
        a.(v mod n) <- 1.;
        a
      in
      let multi_cur = Array.init nb (fun v -> mk_start (v * 11)) in
      let multi_nxt = Array.init nb (fun _ -> Array.make n nan) in
      let single_cur = Array.init nb (fun v -> mk_start (v * 11)) in
      let single_nxt = Array.init nb (fun _ -> Array.make n nan) in
      for step = 1 to 4 do
        let ds =
          B.step_tv_multi kern ~pi ~srcs:multi_cur ~dsts:multi_nxt
        in
        for v = 0 to nb - 1 do
          let d =
            B.step_tv kern ~pi ~src:single_cur.(v) ~dst:single_nxt.(v)
          in
          Alcotest.(check bool)
            (Printf.sprintf "nb=%d step=%d vec=%d: tv bits" nb step v)
            true
            (Int64.equal (Int64.bits_of_float d) (Int64.bits_of_float ds.(v)));
          Alcotest.(check bool)
            (Printf.sprintf "nb=%d step=%d vec=%d: dst bits" nb step v)
            true
            (Array.for_all2
               (fun a b ->
                 Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))
               single_nxt.(v) multi_nxt.(v));
          Array.blit multi_nxt.(v) 0 multi_cur.(v) 0 n;
          Array.blit single_nxt.(v) 0 single_cur.(v) 0 n
        done
      done)
    [ 1; 2; 3; 7; 16 ]

let test_blocked_killed_build_rejected () =
  let path = Filename.temp_file "bcsr" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      (* Spill a few blocks but never [finish]: no trailer is written,
         so the file must be refused — this is the crash-safety story
         for killed builds. *)
      let bld = B.builder ~block_rows:2 ~spill:path () in
      for _ = 1 to 6 do
        B.add_row bld [ (0, 0.5); (1, 0.5) ]
      done;
      Alcotest.(check bool) "killed build rejected" true
        (match B.open_file path with
        | (_ : B.t) -> false
        | exception Failure _ -> true);
      ignore (B.finish bld ~cols:2))

let test_blocked_builder_invalid () =
  Alcotest.check_raises "negative column"
    (Invalid_argument "Blocked_csr.add_row: negative column index") (fun () ->
      B.add_row (B.builder ()) [ (-1, 1.) ]);
  Alcotest.check_raises "empty matrix"
    (Invalid_argument "Blocked_csr.finish: empty matrix") (fun () ->
      ignore (B.finish (B.builder ()) ~cols:1));
  Alcotest.check_raises "column out of bounds"
    (Invalid_argument "Blocked_csr.finish: column index out of bounds")
    (fun () ->
      let bld = B.builder () in
      B.add_row bld [ (3, 1.) ];
      ignore (B.finish bld ~cols:2))

let test_builds_match_dense_oracle () =
  (* The enumerated and reachable builds (reachable numbers the states
     in BFS order) and the dense oracle, built straight from the
     transition function, must give the same matrix and the same tau. *)
  let n = 23 in
  let states = Array.init n Fun.id in
  let transitions i =
    [ ((i + 1) mod n, 0.5); ((i * 2) mod n, 0.25); (i, 0.25) ]
  in
  let dense = Dense_oracle.of_chain ~states ~transitions in
  let enumerated =
    Markov.Exact_builder.build ~block_rows:5
      (Markov.Exact_builder.enumerated states)
      ~transitions
  in
  let reachable =
    Markov.Exact_builder.build ~block_rows:5
      (Markov.Exact_builder.reachable ~root:0)
      ~transitions
  in
  Alcotest.(check int) "reachable size" n (Markov.Exact.size reachable);
  Alcotest.(check (float 1e-15)) "enumerated = dense oracle" 0.
    (M.max_abs_diff
       (Dense_oracle.of_blocked (Markov.Exact.blocked enumerated))
       dense);
  let r = Dense_oracle.of_blocked (Markov.Exact.blocked reachable) in
  let at = Markov.Exact.index reachable in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      Alcotest.(check (float 1e-15))
        (Printf.sprintf "reachable P(%d,%d)" i j)
        (M.get dense i j) (M.get r (at i) (at j))
    done
  done;
  let tau = Dense_oracle.mixing_time dense in
  Alcotest.(check int) "enumerated tau" tau
    (Markov.Exact.mixing_time enumerated);
  Alcotest.(check int) "reachable tau" tau (Markov.Exact.mixing_time reachable)

(* The hard-fail parity the bench micro table used to carry: the dense
   oracle's step-by-step scan and the blocked doubling-then-bisect search
   agree on tau(1/4) for ABKU[2] cells, at one and two domains. *)
let test_dense_oracle_tau_cells () =
  List.iter
    (fun (scenario, n) ->
      let states = Markov.Partition_space.enumerate ~n ~m:n in
      let transitions =
        Core.Dynamic_process.exact_transitions
          (Core.Dynamic_process.make scenario (Core.Scheduling_rule.abku 2) ~n)
      in
      let chain = build states ~transitions in
      let tau =
        Dense_oracle.mixing_time (Dense_oracle.of_chain ~states ~transitions)
      in
      List.iter
        (fun domains ->
          Alcotest.(check int)
            (Printf.sprintf "%s n=%d domains=%d"
               (match scenario with Core.Scenario.A -> "Id" | B -> "Ib")
               n domains)
            tau
            (Markov.Exact.mixing_time ~domains chain))
        [ 1; 2 ])
    [ (Core.Scenario.A, 8); (Core.Scenario.B, 8); (Core.Scenario.B, 12) ]

let test_mixing_starts_subset () =
  let c = two_state 0.2 0.3 in
  let tau = Markov.Exact.mixing_time ~eps:0.01 c in
  let t0 = Markov.Exact.mixing_time ~eps:0.01 ~starts:[| 0 |] c in
  let t1 = Markov.Exact.mixing_time ~eps:0.01 ~starts:[| 1 |] c in
  Alcotest.(check int) "max over singletons = full tau" tau (max t0 t1);
  Alcotest.(check int) "all starts explicitly" tau
    (Markov.Exact.mixing_time ~eps:0.01 ~starts:[| 0; 1 |] c);
  Alcotest.check_raises "empty starts"
    (Invalid_argument "Exact.mixing_time: empty starts") (fun () ->
      ignore (Markov.Exact.mixing_time ~starts:[||] c));
  Alcotest.check_raises "start out of range"
    (Invalid_argument "Exact.mixing_time: start out of range") (fun () ->
      ignore (Markov.Exact.mixing_time ~starts:[| 2 |] c))

let sample_snapshot () =
  {
    Ck.states = 7;
    nnz = 19;
    phase =
      Ck.Mixing
        {
          eps = 0.25;
          pi_tol = 1e-12;
          pi = [| 0.25; 0.75 |];
          tau_hat = 9;
          completed = [ (1, 9); (0, 4) ];
          inflight =
            Some { Ck.start = 3; t_base = 8; lo = 8; hi = 16;
                   base = [| 0.5; 0.5 |] };
        };
  }

let test_checkpoint_file_roundtrip () =
  let path = Filename.temp_file "ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let snap = sample_snapshot () in
      Ck.save_file path snap;
      (match Ck.load_file path with
      | None -> Alcotest.fail "roundtrip lost the snapshot"
      | Some got -> Alcotest.(check bool) "roundtrip equal" true (got = snap));
      (* A Stationary-phase snapshot roundtrips too. *)
      let snap2 =
        { Ck.states = 3; nnz = 5;
          phase = Ck.Stationary
              { tol = 1e-12; iter = 41; prev_r = 0.125;
                dist = [| 0.1; 0.2; 0.7 |] } }
      in
      Ck.save_file path snap2;
      Alcotest.(check bool) "stationary roundtrip" true
        (Ck.load_file path = Some snap2);
      (* Corruption and foreign files read as "no checkpoint". *)
      let oc = open_out_bin path in
      output_string oc "definitely not a checkpoint";
      close_out oc;
      Alcotest.(check bool) "foreign file" true (Ck.load_file path = None);
      Sys.remove path;
      Alcotest.(check bool) "missing file" true (Ck.load_file path = None))

let test_checkpoint_sink_throttle () =
  let sink, cell = Ck.memory_sink ~min_interval:3600. () in
  Alcotest.(check bool) "starts empty" true (Ck.resume sink = None);
  let snap = sample_snapshot () in
  let built = ref 0 in
  let thunk () = incr built; snap in
  Ck.offer sink thunk;
  Alcotest.(check int) "first offer stores" 1 !built;
  Alcotest.(check bool) "stored" true (!cell = Some snap);
  cell := None;
  Ck.offer sink thunk;
  Alcotest.(check int) "second offer throttled, thunk skipped" 1 !built;
  Alcotest.(check bool) "no store" true (!cell = None);
  (* Commits ignore the throttle. *)
  Ck.commit sink snap;
  Alcotest.(check bool) "commit unconditional" true (!cell = Some snap);
  Alcotest.(check bool) "resume reads back" true (Ck.resume sink = Some snap)

let test_mixing_checkpoint_resume_file () =
  (* End-to-end through a file sink: interrupt nothing, just check that
     a fresh run writes a final snapshot and a second run resumes from
     it and reproduces tau. *)
  let path = Filename.temp_file "ckpt" ".bin" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c = two_state 0.05 0.02 in
      let sink = Ck.file_sink ~min_interval:0. path in
      let tau = Markov.Exact.mixing_time ~eps:0.01 ~checkpoint:sink c in
      Alcotest.(check bool) "final snapshot written" true
        (Ck.load_file path <> None);
      (* A fresh chain object resuming from the completed snapshot must
         agree without redoing the search. *)
      let c2 = two_state 0.05 0.02 in
      let sink2 = Ck.file_sink ~min_interval:0. path in
      Alcotest.(check int) "resumed tau identical" tau
        (Markov.Exact.mixing_time ~eps:0.01 ~checkpoint:sink2 c2))

(* The product bits behind every committed tau, golden output and
   checkpoint, pinned as IEEE-754 literals on Id-ABKU[2] with n = m = 24:
   1575 states, so the fused statistics reduce over two 1024-column
   chunks.  Each tau variant builds a fresh chain, so its stationary
   solve runs on the domain count and sink under test. *)
let test_product_bits_pinned () =
  let n = 24 in
  let chain () =
    build
      (Markov.Partition_space.enumerate ~n ~m:n)
      ~transitions:
        (Core.Dynamic_process.exact_transitions
           (Core.Dynamic_process.make Core.Scenario.A
              (Core.Scheduling_rule.abku 2) ~n))
  in
  let c = chain () in
  let all_in_one = Markov.Exact.index c (Lv.all_in_one ~n ~m:n) in
  let uniform = Markov.Exact.index c (Lv.uniform ~n ~m:n) in
  let extremal = [| all_in_one; uniform |] in
  let check_bits what expect got =
    Alcotest.(check (list int64))
      what expect
      (List.map Int64.bits_of_float (Array.to_list got))
  in
  let check_pi what c =
    let pi = Markov.Exact.stationary c in
    check_bits what
      [ 3686700749718267650L; 4509155129947971600L ]
      [| pi.(all_in_one); pi.(uniform) |]
  in
  Alcotest.(check int) "two column chunks" 1575 (Markov.Exact.size c);
  check_pi "pi at all-in-one, uniform" c;
  check_bits "extremal profile"
    [
      4607182418800017273L; 4607182418800017270L; 4607182418800017270L;
      4607182418800017270L; 4607182418800017270L; 4607182418800017270L;
      4607182418800017270L; 4607182418800017270L; 4607182418800017270L;
    ]
    (Markov.Exact.worst_tv_profile ~starts:extremal c ~max_t:8);
  check_bits "uniform-start profile"
    [
      4607182416150947212L; 4607182058357399339L; 4607171677396882818L;
      4607057841715799666L; 4606468092844073794L; 4605580691983317421L;
      4604682066816763018L; 4604081012785764311L; 4603386735262448533L;
    ]
    (Markov.Exact.worst_tv_profile ~domains:2 ~starts:[| uniform |] c
       ~max_t:8);
  (* The eight highest-π states: one fused batch of eight vectors. *)
  check_bits "top-pi batch profile"
    [
      4606677419927611823L; 4604979158735352704L; 4603672999383088646L;
      4602673790235902638L; 4601364610782840950L; 4600443917886223477L;
      4599615394519846301L; 4598885547410780849L; 4598245046228039075L;
    ]
    (Markov.Exact.worst_tv_profile ~domains:2
       ~starts:[| 1568; 1569; 1567; 1556; 1557; 1555; 1570; 1566 |]
       c ~max_t:8);
  List.iter
    (fun domains ->
      List.iter
        (fun sink ->
          let what =
            Printf.sprintf "domains=%d%s" domains
              (if sink then " checkpointed" else "")
          in
          let c = chain () in
          let checkpoint =
            if sink then Some (fst (Ck.memory_sink ())) else None
          in
          Alcotest.(check int)
            ("tau " ^ what) 56
            (Markov.Exact.mixing_time ~domains ~starts:extremal ?checkpoint c);
          check_pi ("pi after tau, " ^ what) c)
        [ false; true ])
    [ 1; 2 ]

(* The spill file of a build is its matrix, bit for bit. *)
let spill_digest ?block_rows source ~transitions =
  let path = Filename.temp_file "test_pin" ".blk" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let c =
        Markov.Exact_builder.build ?block_rows ~spill:path source ~transitions
      in
      Markov.Blocked_csr.close (Markov.Exact.blocked c);
      Digest.to_hex (Digest.file path))

(* Digests recorded with the builder that emitted one successor array
   per insertion rank, looked every one of them up, and sorted each row
   with the stdlib [Array.sort] on pairs.  The build path may get
   faster; its bits may not move. *)
let test_build_bits_pinned () =
  let enum n =
    Markov.Exact_builder.enumerated (Markov.Partition_space.enumerate ~n ~m:n)
  in
  let dyn scenario rule ~n =
    Core.Dynamic_process.exact_transitions
      (Core.Dynamic_process.make scenario rule ~n)
  in
  let abku2 = Core.Scheduling_rule.abku 2 in
  let check what expect got = Alcotest.(check string) what expect got in
  check "Id-ABKU[2] n=24" "8f847f3cef1a5d02ed40c7bbe7231abd"
    (spill_digest ~block_rows:512 (enum 24)
       ~transitions:(dyn Core.Scenario.A abku2 ~n:24));
  check "Ib-ABKU[2] n=24" "b42ea39818321526fa50c9587d76b0eb"
    (spill_digest ~block_rows:512 (enum 24)
       ~transitions:(dyn Core.Scenario.B abku2 ~n:24));
  check "Id-ADAP(linear) n=20" "5a6d3a3e3df531546deaad33f4ad2782"
    (spill_digest (enum 20)
       ~transitions:
         (dyn Core.Scenario.A
            (Core.Scheduling_rule.adap (Core.Adaptive.linear ()))
            ~n:20));
  let open_process = Core.Open_process.make ~capacity:12 abku2 ~n:8 in
  check "Open(ABKU[2], cap=12) n=8" "76567dbca7e7086cef2b1cc4b01014f4"
    (spill_digest
       (Markov.Exact_builder.reachable ~root:(Lv.of_array (Array.make 8 0)))
       ~transitions:(Core.Open_process.exact_transitions open_process));
  check "RBB-d2 n=16" "26cfee1b6f354e882732bf627fcfede7"
    (spill_digest (enum 16)
       ~transitions:(Rbb.exact_transitions (Rbb.make (Rbb.dchoice 2) ~n:16)))

(* The lookup memo keys on physical equality: shared successor arrays,
   fresh copies of them, and a buffer that one row ends on and the next
   row starts on, rewritten in between, must all build one matrix. *)
let test_build_shared_successors () =
  let n = 12 in
  let states =
    Markov.Exact_builder.enumerated (Markov.Partition_space.enumerate ~n ~m:n)
  in
  let shared =
    Core.Dynamic_process.exact_transitions
      (Core.Dynamic_process.make Core.Scenario.A
         (Core.Scheduling_rule.abku 2) ~n)
  in
  let fresh s =
    List.map (fun (v, p) -> (Lv.of_array (Lv.to_array v), p)) (shared s)
  in
  Alcotest.(check string) "fresh = shared"
    (spill_digest states ~transitions:shared)
    (spill_digest states ~transitions:fresh);
  let k = 5 in
  let ids = Markov.Exact_builder.enumerated (Array.init k (fun i -> [| i |])) in
  let next i = [| (i + 1) mod k |] and prev i = [| (i + k - 1) mod k |] in
  let expected = function
    | [| i |] when i mod 2 = 0 -> [ (prev i, 0.5); (next i, 0.5) ]
    | [| i |] -> [ (next i, 0.5); (prev i, 0.5) ]
    | _ -> assert false
  in
  let buf = [| 0 |] in
  let reused = function
    | [| i |] when i mod 2 = 0 ->
        buf.(0) <- (i + 1) mod k;
        [ (prev i, 0.5); (buf, 0.5) ]
    | [| i |] ->
        buf.(0) <- (i + 1) mod k;
        [ (buf, 0.5); (prev i, 0.5) ]
    | _ -> assert false
  in
  Alcotest.(check string) "buffer reused across rows"
    (spill_digest ids ~transitions:expected)
    (spill_digest ids ~transitions:reused)

(* [Blocked_csr.sort_row] against the stdlib sort it replaces: the same
   (key, value-bits) sequence, duplicates included, and nothing past
   [len] touched. *)
let qcheck_sort_row_matches_array_sort =
  let gen =
    QCheck.Gen.(
      let* len = frequency [ (1, int_range 0 2); (3, int_range 0 300) ] in
      let* span = oneofl [ 1; 2; 5; 40; 1000 ] in
      list_repeat len (pair (int_bound (span - 1)) (float_bound_inclusive 1.)))
  in
  QCheck.Test.make ~name:"sort_row = Array.sort on pairs" ~count:500
    (QCheck.make ~print:QCheck.Print.(list (pair int float)) gen)
    (fun entries ->
      let pairs = Array.of_list entries in
      let len = Array.length pairs in
      Array.sort (fun (a, _) (b, _) -> compare (a : int) b) pairs;
      let keys = Array.make (len + 3) (-7) in
      let vals = Array.make (len + 3) nan in
      List.iteri
        (fun i (k, v) ->
          keys.(i) <- k;
          vals.(i) <- v)
        entries;
      Markov.Blocked_csr.sort_row keys vals len;
      let bits v = Int64.bits_of_float v in
      Array.for_all Fun.id
        (Array.mapi
           (fun i (k, v) -> keys.(i) = k && bits vals.(i) = bits v)
           pairs)
      && Array.for_all (fun k -> k = -7) (Array.sub keys len 3)
      && Array.for_all Float.is_nan (Array.sub vals len 3))

let suite =
  List.map (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("matrix identity mul", test_matrix_identity_mul);
      ("matrix mul known", test_matrix_mul_known);
      ("matrix vec_mul", test_matrix_vec_mul);
      ("matrix stochastic", test_matrix_stochastic);
      ("matrix invalid", test_matrix_invalid);
      ("chain step view", test_chain_step_view);
      ("chain step uses rng", test_chain_step_uses_rng);
      ("partition count small", test_partition_count_small);
      ("partition enumerate", test_partition_enumerate);
      ("partition count sweep", test_partition_count_matches_enumerate_sweep);
      ("partition enumerate = oracle", test_partition_enumerate_oracle);
      ("exact stationary", test_exact_stationary_two_state);
      ("exact tv distance", test_exact_tv);
      ("exact distribution_after", test_exact_distribution_after);
      ("exact mixing two-state", test_exact_mixing_two_state);
      ("exact mixing monotone in eps", test_exact_mixing_monotone_eps);
      ("exact build invalid", test_exact_build_invalid);
      ("exact build merges duplicates", test_exact_build_merges_duplicates);
      ("blocked csr row normalization", test_blocked_row_normalization);
      ("stationary near-reducible", test_exact_stationary_near_reducible);
      ("stationary cache", test_exact_stationary_cache);
      ("exact accessors", test_exact_accessors);
      ("builder reachable + build_mix", test_builder_reachable_and_mix);
      ("profile drop_below", test_worst_tv_profile_drop_below);
      ("state index basics", test_state_index_basics);
      ("blocked csr roundtrip", test_blocked_roundtrip);
      ("blocked csr spill roundtrip", test_blocked_spill_roundtrip);
      ("blocked multi-vector kernel bitwise", test_blocked_multi_bitwise);
      ("blocked csr killed build rejected", test_blocked_killed_build_rejected);
      ("blocked csr builder invalid", test_blocked_builder_invalid);
      ("builds = dense oracle (matrix, tau)", test_builds_match_dense_oracle);
      ( "dense oracle tau = exact tau (Id/Ib cells)",
        test_dense_oracle_tau_cells );
      ("mixing_time starts subset", test_mixing_starts_subset);
      ("checkpoint file roundtrip", test_checkpoint_file_roundtrip);
      ("checkpoint sink throttle", test_checkpoint_sink_throttle);
      ("mixing checkpoint resume via file", test_mixing_checkpoint_resume_file);
      ("product bits pinned (n=24, two chunks)", test_product_bits_pinned);
      ("build spill bits pinned", test_build_bits_pinned);
      ("build shared vs fresh successors", test_build_shared_successors);
    ]
  @ List.map QCheck_alcotest.to_alcotest [ qcheck_sort_row_matches_array_sort ]
