(* The serve part.  The daemon runs in its own process (this executable
   in daemon mode): n = 10^4 bins, Id-ABKU[2], 2 shards on 2 domains, a
   durable state directory whose journal is flushed per batch without
   fsync.  The pre-generated 45/45/10 stream goes out in three phases:
   saturate (closed loop at a fixed pipeline depth), crash (kill -9,
   then a restart on the same directory, which must restore the exact
   pre-kill occupancy), and paced (open loop at a fixed rate on the
   restarted daemon, each request timed from its due time).  The crash
   comes before the paced phase because a restart replays one journal
   record per applied batch: saturate batches are fixed by the depth,
   paced ones by timing. *)

let sat_ops = 100_000  (* saturate: requests *)
let paced_ops = 10_000
let depth = 64  (* saturate: requests in flight per round trip *)
let rate = 20_000.  (* paced: requests per second *)
let n = 10_000
let shards = 2
let domains = 2

let cluster_config ~seed =
  { Serve.Cluster.n; m = n; shards; process = Serve.Process.Sequential;
    scenario = Core.Scenario.A; rule = Core.Scheduling_rule.abku 2;
    repr = Core.Repr.Array_backed; seed }

(* Daemon mode: serve until SIGTERM. *)
let daemon ~sock ~dir ~seed =
  Serve.Server.run
    { (Serve.Server.default_config ~listen:(Serve.Wire.Unix_sock sock)
         ~cluster:(cluster_config ~seed))
      with dir = Some dir; domains; quiet = true;
      (* Never compact during a run: the restart replays the whole
         journal, so its cost is fixed by the request count. *)
      snapshot_every = max_int }

(* {2 Processes} *)

let live : int list ref = ref []

let spawn ~sock ~dir ~seed =
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [| exe; "daemon"; "--sock"; sock; "--dir"; dir; "--seed"; string_of_int seed |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  live := pid :: !live;
  pid

let reap pid =
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

let kill9 pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

(* SIGTERM lets the daemon snapshot and exit; a daemon that does not
   stop within 10 s is killed. *)
let stop pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
        Unix.sleepf 0.005;
        wait ()
    | 0, _ -> kill9 pid
    | _ -> live := List.filter (( <> ) pid) !live
  in
  wait ()

let kill_all () = List.iter kill9 !live

(* Poll until the daemon accepts; the connection that succeeds is the
   one the phases use. *)
let connect_wait ~sock pid =
  let deadline = Unix.gettimeofday () +. 60. in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> Loadgen.of_fd fd
    | exception Unix.Unix_error _ ->
        Unix.close fd;
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ -> ()
        | _ ->
            live := List.filter (( <> ) pid) !live;
            failwith "serve daemon exited before accepting");
        if Unix.gettimeofday () > deadline then failwith "serve daemon never accepted";
        Unix.sleepf 0.0005;
        go ()
  in
  go ()

(* Peak resident set of a live process, MiB. *)
let vm_hwm_mb pid =
  let ic = open_in (Printf.sprintf "/proc/%d/status" pid) in
  Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      let rec find () =
        match input_line ic with
        | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
            Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB"
              (fun kb -> float_of_int kb /. 1024.)
        | _ -> find ()
        | exception End_of_file -> nan
      in
      find ())

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

(* {2 Stats scrape} *)

module J = Experiment.Json

let rec path json = function
  | [] -> Some json
  | k :: rest -> Option.bind (J.member k json) (fun v -> path v rest)

let num json keys =
  match path json keys with
  | Some (J.Int i) -> float_of_int i
  | Some (J.Float f) -> f
  | _ -> nan

let shard_list json =
  match J.member "shards" json with Some (J.List l) -> l | _ -> []

let parse_stats line =
  match J.of_string line with
  | Ok j -> j
  | Error e -> failwith ("serve: bad stats reply: " ^ e)

(* Daemon-reported figures for the paced phase, which the restarted
   daemon serves alone: stage p50s of the insert op (the most frequent
   mutation), and the share of wall time spent inside rounds and the
   mean shard drain depth (differences of two scrapes around the
   phase). *)
let daemon_figures ~before ~after =
  let stage s = num after [ "ops"; "insert"; "stage_ns_" ^ s; "p50" ] in
  let busy =
    (num after [ "round_ns"; "sum" ] -. num before [ "round_ns"; "sum" ])
    /. ((num after [ "uptime_s" ] -. num before [ "uptime_s" ]) *. 1e9)
  in
  let drain field j =
    List.fold_left (fun acc sh -> acc +. num sh [ "drain_depth"; field ]) 0. (shard_list j)
  in
  let depth =
    (drain "sum" after -. drain "sum" before)
    /. (drain "count" after -. drain "count" before)
  in
  [ ("serve.stage_p50_ns.decode", "ns", stage "decode");
    ("serve.stage_p50_ns.route", "ns", stage "route");
    ("serve.stage_p50_ns.apply", "ns", stage "apply");
    ("serve.stage_p50_ns.reply", "ns", stage "reply");
    ("serve.round_busy_frac", "ratio", busy);
    ("serve.drain_depth_mean", "count", depth) ]

(* {2 The part} *)

(* The paced phase's tail latency is taken per 10 ms window of due
   times and the median over windows is reported.  On a small shared
   machine the whole-phase p99 is set by how many multi-millisecond
   scheduler stalls the phase happened to contain, which varies several
   fold between identical runs; the windowed figure is the tail of a
   typical 10 ms interval.  The whole-phase p99 is reported beside it. *)
let window_s = 0.01

let windowed_p99_us latencies ~window =
  let n = Array.length latencies / window in
  if n = 0 then nan
  else
    let p99s =
      Array.init n (fun w ->
          let a = Array.sub latencies (w * window) window in
          Array.sort compare a;
          int_of_float (Loadgen.quantile_of_sorted a 0.99))
    in
    Array.sort compare p99s;
    Loadgen.quantile_of_sorted p99s 0.5 /. 1e3

type result = {
  setup_s : float;
  ops_per_s : float;
  p50_us : float;
  p99_us : float;
  p99_phase_us : float;
  samples : int;
  late_ms : float;
  restart_s : float;
  daemon : (string * string * float) list;  (* name, unit, value *)
}

let run ~seed ~work ~check =
  let t_setup = Tr.now_ns () in
  let stream =
    Loadgen.generate ~seed:(seed + 17) ~count:(sat_ops + paced_ops)
  in
  let dir = Filename.concat work "state" and sock = Filename.concat work "serve.sock" in
  rm_rf dir;
  let pid, c =
    Tr.span "serve.daemon.spawn" (fun () ->
        let pid = spawn ~sock ~dir ~seed in
        (pid, connect_wait ~sock pid))
  in
  let setup_s = float_of_int (Tr.now_ns () - t_setup) *. 1e-9 in
  let sat =
    Tr.span "loadgen.saturate" (fun () ->
        Loadgen.saturate c stream ~lo:0 ~hi:sat_ops ~depth)
  in
  Check.requests check ~phase:"saturate" ~sent:sat_ops ~received:sat.received
    ~errors:sat.errors;
  let query c name req = Tr.span name (fun () -> Loadgen.query c req) in
  let occupancy c = query c "serve.occupancy" "{\"op\":\"occupancy\"}" in
  let stats c = parse_stats (query c "serve.stats" "{\"op\":\"stats\"}") in
  let occ_before = occupancy c in
  let t_kill = Tr.now_ns () in
  let pid2, c2 =
    Tr.span "serve.restart" (fun () ->
        kill9 pid;
        Loadgen.close c;
        let pid2 = spawn ~sock ~dir ~seed in
        (pid2, connect_wait ~sock pid2))
  in
  let restart_s = float_of_int (Tr.now_ns () - t_kill) *. 1e-9 in
  Check.occupancy check ~before:occ_before ~after:(occupancy c2);
  let before = stats c2 in
  let paced =
    Tr.span "loadgen.paced" (fun () ->
        Loadgen.paced c2 stream ~lo:sat_ops ~hi:(sat_ops + paced_ops)
          ~rate)
  in
  Check.requests check ~phase:"paced" ~sent:paced_ops ~received:paced.received
    ~errors:paced.errors;
  let after = stats c2 in
  Loadgen.close c2;
  stop pid2;
  rm_rf dir;
  let sorted = Array.copy paced.latencies in
  Array.sort compare sorted;
  let us q = Loadgen.quantile_of_sorted sorted q /. 1e3 in
  { setup_s;
    ops_per_s = float_of_int sat.received /. sat.seconds;
    p50_us = us 0.5;
    p99_us =
      windowed_p99_us paced.latencies ~window:(int_of_float (rate *. window_s));
    p99_phase_us = us 0.99; samples = Array.length sorted;
    late_ms = float_of_int paced.late_ns /. 1e6;
    restart_s;
    daemon = daemon_figures ~before ~after }
