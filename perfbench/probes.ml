(* Per-layer probes for the traced run: each times a loop of calls into
   one module's public functions from outside, and reports nanoseconds
   and minor-heap words per call.  Sizes are fixed (they do not depend
   on the workload) except where a probe reuses a chain or a stream the
   workload built. *)

module Lv = Loadvec.Load_vector

let now = Tr.now_ns

(* [f iters] runs the loop; the result is (ns, words) per iteration. *)
let per_iter ~iters f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  f iters;
  let dt = float_of_int (now () - t0) and dw = Gc.minor_words () -. w0 in
  (dt /. float_of_int iters, dw /. float_of_int iters)

let prng () =
  let g = Prng.Rng.create ~seed:11 () in
  let acc = ref 0 in
  Tr.span "prng.rng.int" (fun () ->
      per_iter ~iters:2_000_000 (fun k ->
          for _ = 1 to k do
            acc := !acc + Prng.Rng.int g 1000
          done;
          ignore (Sys.opaque_identity !acc)))

let system_step () =
  let n = 32768 in
  let sys =
    Core.System.create Core.Scenario.A (Core.Scheduling_rule.abku 2)
      (Core.Bins.of_loads (Array.make n 1))
  in
  let g = Prng.Rng.create ~seed:12 () in
  Tr.span "core.system.step" (fun () ->
      per_iter ~iters:500_000 (fun k ->
          for _ = 1 to k do
            Core.System.step g sys
          done))

let stepper repr =
  let n = match repr with Core.Repr.Array_backed -> 64 | _ -> 10_000 in
  let p = Core.Dynamic_process.make Core.Scenario.A (Core.Scheduling_rule.abku 2) ~n in
  let s = Core.Dynamic_process.sim_repr ~repr p (Lv.uniform ~n ~m:n) in
  let g = Prng.Rng.create ~seed:13 () in
  Tr.span "core.dynamic_process.sim_repr" (fun () ->
      per_iter ~iters:500_000 (fun k -> Engine.Sim.iterate s g k))

let rbb_round repr =
  let n = 1024 in
  let s = Rbb.sim_repr ~repr (Rbb.make (Rbb.dchoice 2) ~n) (Lv.uniform ~n ~m:n) in
  let g = Prng.Rng.create ~seed:14 () in
  Tr.span "rbb.sim_repr" (fun () ->
      per_iter ~iters:2_000 (fun k -> Engine.Sim.iterate s g k))

(* Blocked_csr products on a chain the exact part built.  Both figures
   are nanoseconds per stored non-zero per vector. *)
let spmv chain =
  let b = Markov.Exact.blocked chain in
  let k = Markov.Blocked_csr.kernel b in
  let dim = Markov.Blocked_csr.rows b and nnz = float_of_int (Markov.Blocked_csr.nnz b) in
  let v () = Array.make dim (1. /. float_of_int dim) in
  let src = v () and dst = v () in
  let iters = max 5 (20_000_000 / int_of_float nnz) in
  let single, _ =
    Tr.span "markov.blocked_csr.spmv" (fun () ->
        per_iter ~iters (fun k' ->
            for _ = 1 to k' do
              Markov.Blocked_csr.spmv k ~src ~dst
            done))
  in
  let batch = 16 in
  let srcs = Array.init batch (fun _ -> v ()) and dsts = Array.init batch (fun _ -> v ()) in
  let pi = v () in
  let multi, _ =
    Tr.span "markov.blocked_csr.step_tv_multi" (fun () ->
        per_iter ~iters:(max 2 (iters / batch)) (fun k' ->
            for _ = 1 to k' do
              ignore (Markov.Blocked_csr.step_tv_multi k ~pi ~srcs ~dsts)
            done))
  in
  (single /. nnz, multi /. (nnz *. float_of_int batch))

let pool_run () =
  Parallel.Pool.with_pool ~domains:2 (fun p ->
      for _ = 1 to 1000 do
        Parallel.Pool.run p (fun _ _ -> ())
      done;
      let ns, _ =
        Tr.span "parallel.pool.run" (fun () ->
            per_iter ~iters:20_000 (fun k ->
                for _ = 1 to k do
                  Parallel.Pool.run p (fun _ _ -> ())
                done))
      in
      ns /. 1e3)

(* {2 Serve layers, on the workload's own request stream} *)

let events_of stream ~count =
  Array.init (min count stream.Loadgen.count) (fun i ->
      match Serve.Wire.parse (Loadgen.line stream i) with
      | Ok (_, Serve.Wire.Event e) -> e
      | _ -> failwith "perfbench: stream line is not an event")

let decode stream =
  let lines = Array.init (min 100_000 stream.Loadgen.count) (Loadgen.line stream) in
  let ns, _ =
    Tr.span "serve.wire.parse" (fun () ->
        per_iter ~iters:(Array.length lines) (fun k ->
            for i = 0 to k - 1 do
              ignore (Sys.opaque_identity (Serve.Wire.parse lines.(i)))
            done))
  in
  ns

let batches events ~depth f =
  let n = Array.length events in
  let i = ref 0 in
  while !i < n do
    let k = min depth (n - !i) in
    f (Array.sub events !i k);
    i := !i + k
  done

(* Cluster.apply_batch per event at the daemon's batch size; with 2
   shards the cluster flushes on a 2-domain pool, as the daemon does. *)
let apply events ~depth ~shards =
  let cfg = { (Serve_part.cluster_config ~seed:15) with Serve.Cluster.shards } in
  let go pool =
    let c = Serve.Cluster.create ?pool cfg in
    let replies = ref [] in
    let ns, _ =
      Tr.span "serve.cluster.apply_batch" (fun () ->
          per_iter ~iters:(Array.length events) (fun _ ->
              batches events ~depth (fun b ->
                  replies := Serve.Cluster.apply_batch c b :: !replies)))
    in
    (ns, Array.concat (List.rev !replies))
  in
  if shards = 1 then go None
  else Parallel.Pool.with_pool ~domains:shards (fun p -> go (Some p))

let reply replies =
  let buf = Buffer.create 65536 in
  let ns, _ =
    Tr.span "serve.wire.add_reply" (fun () ->
        per_iter ~iters:(Array.length replies) (fun k ->
            for i = 0 to k - 1 do
              if i land 1023 = 0 then Buffer.clear buf;
              Serve.Wire.add_reply buf ~id:None replies.(i)
            done))
  in
  ns

let mutations events =
  Array.of_list
    (List.filter (function Engine.Event.Probe -> false | _ -> true) (Array.to_list events))

(* Journal.Writer.append + flush per batch: ns and bytes per event. *)
let journal events ~depth ~work =
  let muts = mutations events in
  let path = Filename.concat work "probe.journal" in
  let fp = Serve.Journal.fingerprint_of_config (Serve_part.cluster_config ~seed:16) in
  let w = Serve.Journal.Writer.create ~path fp in
  let seq = ref 0 in
  let ns, _ =
    Tr.span "serve.journal.append" (fun () ->
        per_iter ~iters:(Array.length muts) (fun _ ->
            batches muts ~depth (fun b ->
                Serve.Journal.Writer.append w ~seq:!seq b;
                Serve.Journal.Writer.flush w;
                seq := !seq + Array.length b)))
  in
  let bytes = float_of_int (Serve.Journal.Writer.bytes w) /. float_of_int (Array.length muts) in
  Serve.Journal.Writer.close w;
  Sys.remove path;
  (ns, bytes)

(* Store.open_ on a directory whose journal holds the events (no
   snapshot), on a 2-domain pool as in the daemon: events replayed per
   second. *)
let restore events ~depth ~work =
  let dir = Filename.concat work "probe.store" in
  Serve_part.rm_rf dir;
  let cfg = Serve_part.cluster_config ~seed:17 in
  let ok = function Ok s -> s | Error e -> failwith ("perfbench: store: " ^ e) in
  Parallel.Pool.with_pool ~domains:2 (fun pool ->
      let s = ok (Serve.Store.open_ ~pool ~snapshot_every:max_int ~dir cfg) in
      batches events ~depth (fun b -> ignore (Serve.Store.apply_batch s b));
      let t0 = now () in
      let s' =
        Tr.span "serve.store.open_" (fun () ->
            ok (Serve.Store.open_ ~pool ~snapshot_every:max_int ~dir cfg))
      in
      let dt = float_of_int (now () - t0) *. 1e-9 in
      let replayed = Serve.Store.seq s' in
      Serve.Store.close s';
      ignore s;
      Serve_part.rm_rf dir;
      float_of_int replayed /. dt)

(* {2 Obs.Hist quantile error} *)

(* Worst relative error of Obs.Hist p50/p99 against the exact order
   statistic (rank ceil(q n)) over fixed streams: a constant stream,
   uniform integers, and a heavy-tailed latency-like stream. *)
let quantile_rel_err () =
  let g = Prng.Rng.create ~seed:18 () in
  let streams =
    [ Array.make 10_000 500;
      Array.init 100_000 (fun _ -> 1 + Prng.Rng.int g 1_000_000);
      Array.init 100_000 (fun _ ->
          1000 + int_of_float (-20_000. *. log (1. -. Prng.Rng.float g))) ]
  in
  Tr.span "obs.hist.quantile" (fun () ->
      List.fold_left
        (fun worst xs ->
          let h = Obs.Hist.create () in
          Array.iter (Obs.Hist.observe h) xs;
          let snap = Obs.Hist.snapshot h in
          let sorted = Array.copy xs in
          Array.sort compare sorted;
          List.fold_left
            (fun worst q ->
              let exact = Loadgen.quantile_of_sorted sorted q in
              let est = Obs.Hist.quantile snap q in
              Float.max worst (Float.abs (est -. exact) /. exact))
            worst [ 0.5; 0.99 ])
        0. streams)
