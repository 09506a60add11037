(* Tracing and telemetry.  The whole module is gated on one static flag:
   every recording entry point opens with [if not !on then ...], so the
   disabled path is a single load-and-branch with no allocation, and the
   hot step loops of the simulation engine keep their throughput.  When
   enabled, spans and instants accumulate in per-domain buffers (domain-
   local storage, registered under a mutex) and are merged after the
   parallel joins by sorting on the deterministic (track, seq) key, so
   the exported trace does not depend on the domain fan-out. *)

let on = ref false

module Clock = struct
  (* CLOCK_MONOTONIC via bechamel's stub: immune to NTP adjustments,
     which can make Unix.gettimeofday deltas negative or inflated. *)
  let now_ns () = Monotonic_clock.now ()

  let ns_since t0 =
    let d = Int64.sub (now_ns ()) t0 in
    if Int64.compare d 0L < 0 then 0L else d

  let seconds_of_ns ns = Int64.to_float ns /. 1e9
  let seconds_since t0 = seconds_of_ns (ns_since t0)
end

let enabled () = !on

(* ---- log-bucketed histograms (the pure data structure) ---- *)

module Hist = struct
  (* Power-of-two buckets: bucket 0 holds values <= 0, bucket k >= 1
     holds [2^(k-1), 2^k - 1] (the k-bit values).  All cells are atomic
     so observation is safe from any domain; sums commute, so the merged
     totals are deterministic whatever the fan-out. *)
  let bucket_count = 63

  type t = {
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum : int Atomic.t;
    min : int Atomic.t;
    max : int Atomic.t;
  }

  let create () =
    {
      buckets = Array.init bucket_count (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum = Atomic.make 0;
      min = Atomic.make max_int;
      max = Atomic.make min_int;
    }

  let bucket_of v =
    if v <= 0 then 0
    else begin
      let b = ref 0 in
      let v = ref v in
      while !v > 0 do
        incr b;
        v := !v lsr 1
      done;
      !b
    end

  let rec raise_max cell v =
    let cur = Atomic.get cell in
    if v > cur && not (Atomic.compare_and_set cell cur v) then raise_max cell v

  let rec lower_min cell v =
    let cur = Atomic.get cell in
    if v < cur && not (Atomic.compare_and_set cell cur v) then lower_min cell v

  let observe h v =
    ignore (Atomic.fetch_and_add h.buckets.(bucket_of v) 1);
    ignore (Atomic.fetch_and_add h.count 1);
    ignore (Atomic.fetch_and_add h.sum v);
    lower_min h.min v;
    raise_max h.max v

  type snapshot = {
    count : int;
    sum : int;
    min : int;  (** [max_int] when empty. *)
    max : int;  (** [min_int] when empty. *)
    buckets : (int * int * int) list;
        (** Non-empty buckets as (lo, hi, count), in value order. *)
  }

  let snapshot (h : t) =
    let buckets = ref [] in
    for k = bucket_count - 1 downto 0 do
      let c = Atomic.get h.buckets.(k) in
      if c > 0 then begin
        let lo = if k = 0 then 0 else 1 lsl (k - 1) in
        let hi = if k = 0 then 0 else (1 lsl k) - 1 in
        buckets := (lo, hi, c) :: !buckets
      end
    done;
    {
      count = Atomic.get h.count;
      sum = Atomic.get h.sum;
      min = Atomic.get h.min;
      max = Atomic.get h.max;
      buckets = !buckets;
    }

  let reset (h : t) =
    Array.iter (fun c -> Atomic.set c 0) h.buckets;
    Atomic.set h.count 0;
    Atomic.set h.sum 0;
    Atomic.set h.min max_int;
    Atomic.set h.max min_int

  let mean (s : snapshot) =
    if s.count = 0 then nan else float_of_int s.sum /. float_of_int s.count

  let empty : snapshot =
    { count = 0; sum = 0; min = max_int; max = min_int; buckets = [] }

  (* Buckets are keyed by their lower bound: two snapshots' bucket lists
     are aligned like a sorted merge, so merging is associative and
     commutative cell-by-cell (integer sums, min and max), which the qcheck
     properties pin down. *)
  let merge (a : snapshot) (b : snapshot) : snapshot =
    let rec go xs ys =
      match (xs, ys) with
      | [], rest | rest, [] -> rest
      | ((alo, ahi, ac) as x) :: xs', ((blo, _, bc) as y) :: ys' ->
          if alo = blo then (alo, ahi, ac + bc) :: go xs' ys'
          else if alo < blo then x :: go xs' ys
          else y :: go xs ys'
    in
    {
      count = a.count + b.count;
      sum = a.sum + b.sum;
      min = Stdlib.min a.min b.min;
      max = Stdlib.max a.max b.max;
      buckets = go a.buckets b.buckets;
    }

  (* Within-bucket linear interpolation: walk the buckets to the one
     holding rank [q * count] and place the estimate proportionally
     inside its [lo, hi] range.  The last bucket's upper edge is pulled
     in to the recorded max (the true largest observation lives there),
     and every estimate is clamped to the recorded [min, max], so no
     quantile leaves the observed range (a stream constantly at 500
     reports 500, not 378 from inside its [256, 511] bucket).  The
     estimate is exact to within the width of the bucket containing the
     true order statistic — the resolution contract of a log-bucketed
     histogram — and clamping cannot move it out of that bucket. *)
  let quantile (s : snapshot) q =
    if s.count = 0 then nan
    else begin
      let q = if q < 0. then 0. else if q > 1. then 1. else q in
      let interpolate lo hi c remaining =
        let frac =
          Float.max 0. (Float.min 1. (remaining /. float_of_int c))
        in
        float_of_int lo +. (frac *. float_of_int (hi - lo))
      in
      let rec go remaining = function
        | [] -> float_of_int s.max
        | [ (lo, hi, c) ] ->
            let hi = if s.max >= lo && s.max <= hi then s.max else hi in
            interpolate lo hi c remaining
        | (lo, hi, c) :: rest ->
            let fc = float_of_int c in
            if remaining <= fc then interpolate lo hi c remaining
            else go (remaining -. fc) rest
      in
      let est = go (q *. float_of_int s.count) s.buckets in
      Float.min (float_of_int s.max) (Float.max (float_of_int s.min) est)
    end

  let percentiles (s : snapshot) =
    List.map
      (fun (name, q) -> (name, quantile s q))
      [ ("p50", 0.5); ("p90", 0.9); ("p99", 0.99); ("p999", 0.999) ]
end

(* ---- named-instrument registries ---- *)

let registry_lock = Mutex.create ()

let with_lock f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

module Counter = struct
  type t = { name : string; cell : int Atomic.t }

  let registry : t list ref = ref []

  let make name =
    with_lock (fun () ->
        match List.find_opt (fun c -> c.name = name) !registry with
        | Some c -> c
        | None ->
            let c = { name; cell = Atomic.make 0 } in
            registry := c :: !registry;
            c)

  let add t k = if !on then ignore (Atomic.fetch_and_add t.cell k)
  let incr t = add t 1
  let value t = Atomic.get t.cell
end

module Histogram = struct
  type t = { name : string; hist : Hist.t }

  let registry : t list ref = ref []

  let make name =
    with_lock (fun () ->
        match List.find_opt (fun h -> h.name = name) !registry with
        | Some h -> h
        | None ->
            let h = { name; hist = Hist.create () } in
            registry := h :: !registry;
            h)

  let observe t v = if !on then Hist.observe t.hist v
  let observe_ns t ns = if !on then Hist.observe t.hist (Int64.to_int ns)
  let snapshot t = Hist.snapshot t.hist
end

(* Aggregate views for the telemetry sink: only instruments that have
   recorded something, sorted by name so the output is stable. *)
let counters () =
  with_lock (fun () ->
      List.filter_map
        (fun (c : Counter.t) ->
          let v = Atomic.get c.cell in
          if v = 0 then None else Some (c.name, v))
        !Counter.registry)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let histograms () =
  with_lock (fun () ->
      List.filter_map
        (fun (h : Histogram.t) ->
          let s = Hist.snapshot h.hist in
          if s.Hist.count = 0 then None else Some (h.name, s))
        !Histogram.registry)
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* ---- trace events ---- *)

type arg = Int of int | Float of float | Str of string

type phase = Complete | Instant | Counter_sample

type event = {
  name : string;
  ph : phase;
  track : int;
  seq : int;
  ts_ns : int64;
  dur_ns : int64;  (* 0 unless Complete *)
  args : (string * arg) list;
}

(* Per-domain buffer.  [track] and [seq] form the deterministic merge
   key: tasks (replications, per-start searches) are given explicit
   globally-unique track ids from [task_base] before the fan-out, and
   [seq] numbers the spans begun within a task, so the same logical work
   yields the same keys whatever domain it lands on.  A buffer created
   outside any task (a worker domain doing untasked work) gets a unique
   anonymous track well away from the task range. *)
type buffer = {
  mutable track : int;
  mutable seq : int;
  mutable events : event list; (* reversed *)
}

let buffers : buffer list ref = ref []
let anon_track = Atomic.make (1 lsl 40)

let buffer_key =
  Domain.DLS.new_key (fun () ->
      let b =
        { track = Atomic.fetch_and_add anon_track 1; seq = 0; events = [] }
      in
      with_lock (fun () -> buffers := b :: !buffers);
      b)

let buffer () = Domain.DLS.get buffer_key

let task_counter = Atomic.make 1

let task_base ~count =
  if count < 0 then invalid_arg "Obs.task_base: negative count";
  Atomic.fetch_and_add task_counter count

let in_task track f =
  if not !on then f ()
  else begin
    let b = buffer () in
    let old_track = b.track and old_seq = b.seq in
    b.track <- track;
    b.seq <- 0;
    Fun.protect
      ~finally:(fun () ->
        b.track <- old_track;
        b.seq <- old_seq)
      f
  end

(* A span in flight.  [None] when tracing is disabled, so the disabled
   begin/end pair is two branches and no allocation. *)
type span = (string * (string * arg) list * int64 * int * int) option

let null_span : span = None

let begin_span ?(args = []) name : span =
  if not !on then None
  else begin
    let b = buffer () in
    let seq = b.seq in
    b.seq <- seq + 1;
    Some (name, args, Clock.now_ns (), b.track, seq)
  end

let end_span ?(args = []) (s : span) =
  match s with
  | None -> ()
  | Some (name, args0, t0, track, seq) ->
      let b = buffer () in
      b.events <-
        {
          name;
          ph = Complete;
          track;
          seq;
          ts_ns = t0;
          dur_ns = Clock.ns_since t0;
          args = args0 @ args;
        }
        :: b.events

let with_span ?args name f =
  if not !on then f ()
  else begin
    let s = begin_span ?args name in
    Fun.protect ~finally:(fun () -> end_span s) f
  end

let record ph ?(args = []) name =
  if !on then begin
    let b = buffer () in
    let seq = b.seq in
    b.seq <- seq + 1;
    b.events <-
      { name; ph; track = b.track; seq; ts_ns = Clock.now_ns (); dur_ns = 0L; args }
      :: b.events
  end

let instant ?args name = record Instant ?args name
let counter_sample name v = record Counter_sample ~args:[ ("value", Int v) ] name

let events () =
  let all = with_lock (fun () -> List.map (fun b -> b.events) !buffers) in
  List.concat_map List.rev all
  |> List.sort (fun (a : event) (b : event) ->
         match Int.compare a.track b.track with
         | 0 -> Int.compare a.seq b.seq
         | c -> c)

(* ---- control ---- *)

let enable () =
  (* Pin the calling domain's buffer to track 0 so top-level spans sort
     first; worker-domain buffers keep their anonymous tracks unless the
     work runs under [in_task]. *)
  (buffer ()).track <- 0;
  on := true

let disable () = on := false

let reset () =
  with_lock (fun () ->
      List.iter
        (fun b ->
          b.events <- [];
          b.seq <- 0)
        !buffers;
      List.iter (fun (c : Counter.t) -> Atomic.set c.cell 0) !Counter.registry;
      List.iter (fun (h : Histogram.t) -> Hist.reset h.hist) !Histogram.registry);
  Atomic.set task_counter 1

(* ---- Chrome/Perfetto trace-event JSON ---- *)

let escape buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_arg buf (k, v) =
  escape buf k;
  Buffer.add_char buf ':';
  match v with
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_finite f then Buffer.add_string buf (Printf.sprintf "%.17g" f)
      else Buffer.add_string buf "null"
  | Str s -> escape buf s

let ph_letter = function
  | Complete -> "X"
  | Instant -> "i"
  | Counter_sample -> "C"

(* One event per line: ts/dur in microseconds (the unit the trace-event
   format specifies), pid constant, tid = the deterministic track. *)
let add_event buf e =
  Buffer.add_string buf "{\"name\":";
  escape buf e.name;
  Buffer.add_string buf (Printf.sprintf ",\"ph\":%S" (ph_letter e.ph));
  Buffer.add_string buf
    (Printf.sprintf ",\"ts\":%.3f" (Int64.to_float e.ts_ns /. 1e3));
  if e.ph = Complete then
    Buffer.add_string buf
      (Printf.sprintf ",\"dur\":%.3f" (Int64.to_float e.dur_ns /. 1e3));
  Buffer.add_string buf (Printf.sprintf ",\"pid\":1,\"tid\":%d" e.track);
  if e.args <> [] then begin
    Buffer.add_string buf ",\"args\":{";
    List.iteri
      (fun i a ->
        if i > 0 then Buffer.add_char buf ',';
        add_arg buf a)
      e.args
  end
  else Buffer.add_string buf ",\"args\":{";
  Buffer.add_string buf "}}"

let trace_json () =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  List.iteri
    (fun i e ->
      if i > 0 then Buffer.add_string buf ",\n";
      add_event buf e)
    (events ());
  Buffer.add_string buf "\n]}\n";
  Buffer.contents buf

let write_trace ~path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (trace_json ()))
