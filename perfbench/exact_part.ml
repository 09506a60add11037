(* The exact part: Id-ABKU[2] tau(1/4) on two cells, each run through
   Markov.Exact_builder.build, then Exact.stationary, then
   Exact.mixing_time on 2 domains.  The build cell (large |Omega|,
   extremal starts) is dominated by the build; the search cell (small
   |Omega|, every start) by the mixing search.  Nothing here draws a
   random number: the cells are fixed by (n, m, starts). *)

module Lv = Loadvec.Load_vector

type cell = {
  n : int;
  all_starts : bool;
  tau : int;  (* the known answer, checked *)
}

type size = { build : cell; search : cell }

type cell_result = {
  states : int;
  build_s : float;
  stationary_s : float;
  mix_search_s : float;
  total_s : float;
  chain : Lv.t Markov.Exact.t option;  (* kept only on request *)
}

type result = { build_cell : cell_result; search_cell : cell_result }

let domains = 2

let run_cell ~check ~keep_chain (c : cell) =
  let n = c.n and m = c.n in
  let process = Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n in
  let t0 = Tr.now_ns () in
  let chain =
    Tr.span "markov.exact_builder.build" (fun () ->
        Markov.Exact_builder.build
          (Markov.Exact_builder.enumerated (Markov.Partition_space.enumerate ~n ~m))
          ~transitions:(Core.Dynamic_process.exact_transitions process))
  in
  let t1 = Tr.now_ns () in
  ignore
    (Tr.span "markov.exact.stationary" (fun () ->
         Markov.Exact.stationary ~domains chain));
  let t2 = Tr.now_ns () in
  let starts =
    if c.all_starts then None
    else
      Some
        [| Markov.Exact.index chain (Lv.all_in_one ~n ~m);
           Markov.Exact.index chain (Lv.uniform ~n ~m) |]
  in
  let tau =
    Tr.span "markov.exact.mixing_time" (fun () ->
        Markov.Exact.mixing_time ~eps:0.25 ~max_t:1_000_000 ~domains ?starts chain)
  in
  let t3 = Tr.now_ns () in
  Check.tau check
    ~cell:(Printf.sprintf "n=m=%d%s" n (if c.all_starts then " all starts" else " extremal starts"))
    ~expected:c.tau ~got:tau;
  let s a b = float_of_int (b - a) *. 1e-9 in
  { states = Markov.Exact.size chain;
    build_s = s t0 t1; stationary_s = s t1 t2; mix_search_s = s t2 t3;
    total_s = s t0 t3; chain = (if keep_chain then Some chain else None) }

(* [keep_chain] keeps the build cell's chain for the traced run's
   kernel probes; untraced cycles drop it so repeated cycles do not
   accumulate matrices. *)
let run ~size ~check ~keep_chain =
  let build_cell = run_cell ~check ~keep_chain size.build in
  let search_cell = run_cell ~check ~keep_chain:false size.search in
  { build_cell; search_cell }
