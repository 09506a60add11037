(* Load generator for the serve workload.

   The whole request stream is generated from the workload seed before
   any clock starts: one byte buffer holding every request line plus
   the offset of each line.  Phases then only move byte ranges of that
   buffer into the socket and count the reply lines coming back, so the
   client allocates nothing per request.  Replies arrive in request
   order (one line each), which is how a reply is matched to its
   request without ids. *)

type stream = { bytes : Bytes.t; offs : int array; count : int }

(* 45 / 45 / 10 insert / remove / probe. *)
let generate ~seed ~count =
  let g = Prng.Rng.create ~seed () in
  let buf = Buffer.create (count * 28) in
  let offs = Array.make (count + 1) 0 in
  for i = 0 to count - 1 do
    offs.(i) <- Buffer.length buf;
    let r = Prng.Rng.int g 100 in
    if r < 45 then begin
      Buffer.add_string buf "{\"op\":\"insert\",\"key\":";
      Buffer.add_string buf (string_of_int (Prng.Rng.int g 1_000_000_000));
      Buffer.add_string buf "}\n"
    end
    else if r < 90 then Buffer.add_string buf "{\"op\":\"remove\"}\n"
    else Buffer.add_string buf "{\"op\":\"probe\"}\n"
  done;
  offs.(count) <- Buffer.length buf;
  { bytes = Buffer.to_bytes buf; offs; count }

(* Request [i] without its newline. *)
let line s i = Bytes.sub_string s.bytes s.offs.(i) (s.offs.(i + 1) - s.offs.(i) - 1)

(* {2 Connection} *)

type conn = {
  fd : Unix.file_descr;
  buf : Bytes.t;
  mutable lines : int;  (* reply lines completed *)
  mutable errors : int;  (* of which ok:false *)
  mutable pos : int;  (* byte position inside the current reply line *)
  (* Paced phase only: per-reply latency from the request's due time. *)
  mutable lat : int array;
  mutable lat_base : int;  (* [lines] value of the phase's first reply *)
  mutable t0 : int;
  mutable period : float;
}

let of_fd fd =
  Unix.set_nonblock fd;
  { fd; buf = Bytes.create 65536; lines = 0; errors = 0; pos = 0; lat = [||];
    lat_base = 0; t0 = 0; period = 0. }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Requests carry no id, so every reply starts with {"ok":true or
   {"ok":false and byte 6 of the line tells the two apart. *)
let scan c n t_read =
  for i = 0 to n - 1 do
    if Bytes.unsafe_get c.buf i = '\n' then begin
      let k = c.lines - c.lat_base in
      if k >= 0 && k < Array.length c.lat then
        c.lat.(k) <- t_read - (c.t0 + int_of_float (float_of_int k *. c.period));
      c.lines <- c.lines + 1;
      c.pos <- 0
    end
    else begin
      if c.pos = 6 && Bytes.unsafe_get c.buf i = 'f' then c.errors <- c.errors + 1;
      c.pos <- c.pos + 1
    end
  done

(* Wait up to [timeout] seconds for the socket; read what is there.
   Returns whether anything was read. *)
let pump c ~want_write ~timeout =
  let r, w, _ =
    try Unix.select [ c.fd ] (if want_write then [ c.fd ] else []) [] timeout
    with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
  in
  let got =
    r <> []
    &&
    match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
    | 0 -> raise End_of_file
    | n ->
        scan c n (Tr.now_ns ());
        true
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> false
  in
  (got, w <> [])

let write_some c s ~pos ~upto =
  match Unix.single_write c.fd s.bytes pos (upto - pos) with
  | n -> pos + n
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> pos

type phase = {
  sent : int;
  received : int;
  errors : int;
  seconds : float;
  latencies : int array;  (* paced only: ns from due time, reply order *)
  late_ns : int;  (* paced only: worst lag of the generator behind schedule *)
}

(* A phase gives up on replies after this long without progress, or when
   the daemon closes the connection; the missing ones count as failed. *)
let stall_s = 5.0

(* Closed loop: write [depth] requests, wait for their replies, repeat. *)
let saturate c s ~lo ~hi ~depth =
  let lines0 = c.lines and errors0 = c.errors in
  let t0 = Tr.now_ns () in
  let i = ref lo and stalled = ref false in
  while !i < hi && not !stalled do
    let k = min depth (hi - !i) in
    let target = c.lines + k in
    let pos = ref s.offs.(!i) and upto = s.offs.(!i + k) in
    while (not !stalled) && (!pos < upto || c.lines < target) do
      match pump c ~want_write:(!pos < upto) ~timeout:stall_s with
      | got, writable ->
          if writable then pos := write_some c s ~pos:!pos ~upto;
          if (not got) && not writable then stalled := true
      | exception End_of_file -> stalled := true
    done;
    i := !i + k
  done;
  let seconds = float_of_int (Tr.now_ns () - t0) *. 1e-9 in
  { sent = !i - lo; received = c.lines - lines0; errors = c.errors - errors0;
    seconds; latencies = [||]; late_ns = 0 }

(* Open loop: request [lo + k] is due at [t0 + k / rate]; every request
   that is due is written at once, and each reply is timed from its
   request's due time, so a stall is charged to every request it
   delays.  The generator sleeps in [select] until the next due time
   and records how far behind schedule it ran. *)
let paced c s ~lo ~hi ~rate =
  let count = hi - lo in
  let lines0 = c.lines and errors0 = c.errors in
  c.lat <- Array.make count 0;
  c.lat_base <- c.lines;
  c.period <- 1e9 /. rate;
  c.t0 <- Tr.now_ns () + 1_000_000;
  let due k = c.t0 + int_of_float (float_of_int k *. c.period) in
  let queued = ref 0 and pos = ref s.offs.(lo) and late = ref 0 in
  let last_progress = ref (Tr.now_ns ()) and stalled = ref false in
  while (not !stalled) && c.lines - lines0 < count do
    let now = Tr.now_ns () in
    if now >= c.t0 && !queued < count then begin
      let k = min count (1 + int_of_float (float_of_int (now - c.t0) /. c.period)) in
      if k > !queued then begin
        late := max !late (now - due !queued);
        queued := k
      end
    end;
    let upto = s.offs.(lo + !queued) in
    if !pos < upto then pos := write_some c s ~pos:!pos ~upto;
    let timeout =
      if !queued < count then float_of_int (max 0 (due !queued - now)) *. 1e-9
      else stall_s
    in
    match pump c ~want_write:(!pos < s.offs.(lo + !queued)) ~timeout with
    | true, _ -> last_progress := Tr.now_ns ()
    | false, _ ->
        if !queued = count
           && float_of_int (Tr.now_ns () - !last_progress) *. 1e-9 >= stall_s
        then stalled := true
    | exception End_of_file -> stalled := true
  done;
  let received = c.lines - lines0 in
  let latencies = Array.sub c.lat 0 (min received count) in
  c.lat <- [||];
  { sent = !queued; received; errors = c.errors - errors0;
    seconds = float_of_int (Tr.now_ns () - c.t0) *. 1e-9; latencies;
    late_ns = !late }

(* One request line, one reply line (used only between phases, with
   nothing else in flight). *)
let query c req =
  let out = Bytes.of_string (req ^ "\n") in
  let pos = ref 0 in
  while !pos < Bytes.length out do
    ignore (Unix.select [] [ c.fd ] [] stall_s);
    match Unix.single_write c.fd out !pos (Bytes.length out - !pos) with
    | n -> pos := !pos + n
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  done;
  let b = Buffer.create 4096 in
  let rec read () =
    match Unix.select [ c.fd ] [] [] stall_s with
    | [], _, _ -> failwith ("no reply to " ^ req)
    | _ -> (
        match Unix.read c.fd c.buf 0 (Bytes.length c.buf) with
        | 0 -> raise End_of_file
        | n -> (
            match Bytes.index_opt (Bytes.sub c.buf 0 n) '\n' with
            | Some i -> Buffer.add_subbytes b c.buf 0 i
            | None ->
                Buffer.add_subbytes b c.buf 0 n;
                read ())
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            read ())
  in
  read ();
  Buffer.contents b

(* Order statistic of rank ceil(q * n) (1-based) of a sorted sample. *)
let quantile_of_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let r = int_of_float (Float.ceil (q *. float_of_int n)) in
    float_of_int sorted.(max 0 (min (n - 1) (r - 1)))
