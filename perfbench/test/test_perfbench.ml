(* The benchmark's own checks must catch a wrong answer: a tampered
   mixing time, a dropped serve reply, an ok:false reply and a restore
   that changes the occupancy. *)

open Perfbench

let tampered_tau () =
  let c = Check.create () in
  Check.tau c ~cell:"n=m=40" ~expected:111 ~got:111;
  Alcotest.(check bool) "right tau passes" true (Check.correct c);
  Check.tau c ~cell:"n=m=40" ~expected:111 ~got:110;
  Alcotest.(check bool) "tampered tau is caught" false (Check.correct c);
  Alcotest.(check int) "one failure" 1 c.Check.failed

let changed_occupancy () =
  let c = Check.create () in
  Check.occupancy c ~before:"{\"loads\":[1,2]}" ~after:"{\"loads\":[2,1]}";
  Alcotest.(check bool) "restore mismatch is caught" false (Check.correct c)

(* A stand-in daemon on a socket pair: answers every request line in
   order, except that it drops the reply to request [drop] and answers
   request [reject] with ok:false, then closes after [count] requests. *)
let fake_server fd ~count ~drop ~reject =
  Domain.spawn (fun () ->
      let buf = Bytes.create 4096 in
      let seen = ref 0 in
      while !seen < count do
        let n = Unix.read fd buf 0 (Bytes.length buf) in
        if n = 0 then seen := count;
        for i = 0 to n - 1 do
          if Bytes.get buf i = '\n' then begin
            let reply =
              if !seen = drop then ""
              else if !seen = reject then "{\"ok\":false,\"error\":\"x\"}\n"
              else "{\"ok\":true,\"reply\":\"ack\"}\n"
            in
            ignore (Unix.write_substring fd reply 0 (String.length reply));
            incr seen
          end
        done
      done;
      Unix.close fd)

(* A closed loop cannot get past a dropped reply, so the saturate case
   drops the last one; the daemon closing the connection ends the wait. *)
let phase_with_faults run ~drop () =
  let count = 200 in
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let d = fake_server server ~count ~drop ~reject:150 in
  let stream = Loadgen.generate ~seed:1 ~count in
  let c = Loadgen.of_fd client in
  let p : Loadgen.phase = run c stream ~count in
  Domain.join d;
  Loadgen.close c;
  Alcotest.(check int) "all sent" count p.sent;
  Alcotest.(check int) "one reply missing" (count - 1) p.received;
  Alcotest.(check int) "one ok:false" 1 p.errors;
  let chk = Check.create () in
  Check.requests chk ~phase:"test" ~sent:count ~received:p.received ~errors:p.errors;
  Alcotest.(check int) "both count as failed" 2 chk.Check.failed;
  Alcotest.(check int) "every request attempted" count chk.Check.attempted

let saturate c s ~count = Loadgen.saturate c s ~lo:0 ~hi:count ~depth:16
let paced c s ~count = Loadgen.paced c s ~lo:0 ~hi:count ~rate:50_000.

let stream_is_seeded () =
  let a = Loadgen.generate ~seed:5 ~count:1000 and b = Loadgen.generate ~seed:5 ~count:1000 in
  Alcotest.(check bool) "same seed, same stream" true (Bytes.equal a.bytes b.bytes);
  Alcotest.(check bool) "every line is a request" true
    (List.for_all
       (fun i ->
         match Serve.Wire.parse (Loadgen.line a i) with
         | Ok (_, Serve.Wire.Event _) -> true
         | _ -> false)
       (List.init 1000 Fun.id))

let windowed_p99 () =
  (* 10 windows of 100: nine calm (1..100 us) and one stall (10 ms). *)
  let lat =
    Array.init 1000 (fun i -> if i >= 900 then 10_000_000 else ((i mod 100) + 1) * 1000)
  in
  Alcotest.(check (float 1e-9)) "typical window's p99" 99.
    (Serve_part.windowed_p99_us lat ~window:100)

let () =
  Alcotest.run "perfbench"
    [ ( "checks",
        [ Alcotest.test_case "tampered tau" `Quick tampered_tau;
          Alcotest.test_case "changed occupancy" `Quick changed_occupancy ] );
      ( "loadgen",
        [ Alcotest.test_case "saturate: dropped and rejected replies" `Quick
            (phase_with_faults saturate ~drop:199);
          Alcotest.test_case "paced: dropped and rejected replies" `Quick
            (phase_with_faults paced ~drop:37);
          Alcotest.test_case "seeded stream" `Quick stream_is_seeded;
          Alcotest.test_case "windowed p99" `Quick windowed_p99 ] ) ]
