(* Operation accounting and correctness checks.

   Every unit of work the benchmark attempts (a recovery repetition, an
   exact cell, a served request, a correctness assertion) is counted
   here; a failed one is recorded with a message.  The run is correct
   when nothing failed. *)

type t = {
  mutable attempted : int;
  mutable failed : int;
  mutable messages : string list;
}

let create () = { attempted = 0; failed = 0; messages = [] }

let record t ~attempted ~failed what =
  t.attempted <- t.attempted + attempted;
  if failed > 0 then begin
    t.failed <- t.failed + failed;
    t.messages <- Printf.sprintf "%s (%d failed)" what failed :: t.messages
  end

let expect t ok what = record t ~attempted:1 ~failed:(if ok then 0 else 1) what
let correct t = t.failed = 0
let messages t = List.rev t.messages

(* The exact cells' mixing times are fixed by (n, m, starts), so any
   other value is a defect in the exact pipeline. *)
let tau t ~cell ~expected ~got =
  expect t (got = expected)
    (Printf.sprintf "exact %s: tau = %d, expected %d" cell got expected)

(* A restore must reproduce the pre-kill state bit for bit. *)
let occupancy t ~before ~after =
  expect t (String.equal before after)
    "serve: occupancy after restart differs from before kill -9"

(* Requests: each one sent is attempted; a reply with ok:false or no
   reply at all is a failure. *)
let requests t ~phase ~sent ~received ~errors =
  record t ~attempted:sent
    ~failed:(errors + (sent - received))
    (Printf.sprintf "serve %s: %d of %d replies missing, %d ok:false" phase
       (sent - received) sent errors)
