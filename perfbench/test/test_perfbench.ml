(* Tests of the benchmark's own pieces: the tail-percentile rule, the
   open-loop lateness accounting (on a fake clock and server), and the
   seed determinism of the serve request mix. *)

open Perfbench

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-12))
let check_label = Alcotest.(check (option string))

(* ---------------------------------------------------------- percentiles *)

let samples n = Array.init n (fun i -> float_of_int (i + 1))

let test_iqr () =
  check_float "iqr" (2. /. 3.) (Pstats.iqr_frac (samples 5));
  check_float "iqr of equal samples" 0. (Pstats.iqr_frac [| 2.; 2.; 2. |])

let test_tail_rule () =
  let label n = Option.map fst (Pstats.tail (samples n)) in
  check_label "19: nothing has ten beyond" None (label 19);
  check_label "20" (Some "p50") (label 20);
  check_label "99: p90 has only 9 beyond" (Some "p50") (label 99);
  check_label "100" (Some "p90") (label 100);
  check_label "999" (Some "p90") (label 999);
  check_label "1000" (Some "p99") (label 1000);
  check_label "10000" (Some "p99.9") (label 10000);
  check_int "beyond p90 of 100" 10 (Pstats.beyond ~n:100 900);
  check_int "beyond p99 of 999" 9 (Pstats.beyond ~n:999 990);
  match Pstats.tail (samples 200) with
  | Some (_, v) -> check_float "value is that quantile" (Sf_util.Stats.percentile 90. (samples 200)) v
  | None -> Alcotest.fail "no tail for 200 samples"

let test_tail_has_ten_beyond () =
  List.iter
    (fun n ->
      let xs = samples n in
      match Pstats.tail xs with
      | None -> check_bool "only below 20" true (n < 20)
      | Some (_, v) ->
          let above = Array.fold_left (fun a x -> if x > v then a + 1 else a) 0 xs in
          check_bool (Printf.sprintf "n=%d: %d beyond" n above) true (above >= 10))
    [ 1; 19; 20; 21; 57; 99; 100; 101; 250; 999; 1000; 1500; 9999; 10000 ]

(* ------------------------------------------------------------ open loop *)

(* A fake clock that only moves when the generator sleeps or a submit
   costs time; the fake server finishes a request [service] after it was
   sent. *)
let fake ?(submit_cost = 0.) ?(service = 1e-3) ?(busy_first = -1)
    ?(fail = -1) () =
  let t = ref 0. in
  let busy_left = ref (if busy_first >= 0 then 1 else 0) in
  let ops =
    {
      Openloop.now = (fun () -> !t);
      sleep = (fun d -> t := !t +. d);
      submit =
        (fun i ->
          if i = busy_first && !busy_left > 0 then begin
            decr busy_left;
            `Busy
          end
          else if i = fail then `Failed
          else begin
            let sent = !t in
            t := !t +. submit_cost;
            `Sent sent
          end);
      poll = (fun sent -> if !t >= sent +. service then Some true else None);
      idle = (fun () -> false);
    }
  in
  ops

let approx = Alcotest.(check (float 1e-6))

let test_latency_from_due () =
  (* each send costs the generator 25 ms but requests are due every
     10 ms: later requests go out late, and their latency counts that
     wait *)
  let due = Openloop.schedule ~start:0. ~rate:100. ~count:3 in
  let samples = Openloop.run (fake ~submit_cost:0.025 ()) ~due in
  let s = Openloop.summarize samples in
  check_int "all completed" 3 s.Openloop.completed;
  approx "first on time" 0. s.Openloop.lag.(0);
  approx "second 15 ms late" 0.015 s.Openloop.lag.(1);
  approx "third 30 ms late" 0.030 s.Openloop.lag.(2);
  Array.iteri
    (fun i (x : Openloop.sample) ->
      approx
        (Printf.sprintf "request %d: latency = lag + time since sent" i)
        (x.Openloop.finished -. x.Openloop.due)
        (x.Openloop.sent -. x.Openloop.due +. (x.Openloop.finished -. x.Openloop.sent));
      check_bool "latency counts from due" true
        (s.Openloop.latency.(i) >= s.Openloop.lag.(i) +. 1e-3 -. 1e-9))
    samples;
  approx "two of three over 1 ms late" (2. /. 3.) s.Openloop.late_frac

let test_on_time_generator () =
  let due = Openloop.schedule ~start:0. ~rate:50. ~count:20 in
  let s = Openloop.summarize (Openloop.run (fake ()) ~due) in
  check_int "completed" 20 s.Openloop.completed;
  approx "never late" 0. s.Openloop.late_frac;
  Array.iter (fun l -> check_bool "latency near service" true (l >= 1e-3 && l < 1.5e-3)) s.Openloop.latency

let test_busy_and_failed () =
  let due = Openloop.schedule ~start:0. ~rate:100. ~count:4 in
  let s = Openloop.summarize (Openloop.run (fake ~busy_first:0 ~fail:2 ()) ~due) in
  check_int "attempted" 4 s.Openloop.attempted;
  check_int "failed" 1 s.Openloop.failed;
  check_int "completed" 3 s.Openloop.completed;
  check_int "busy retried" 1 s.Openloop.busy;
  check_int "failed requests have no latency" 3 (Array.length s.Openloop.latency)

let test_idle_work_is_finished () =
  let pending = ref 5 in
  let ops = { (fake ()) with Openloop.idle = (fun () -> if !pending > 0 then (decr pending; true) else false) } in
  ignore (Openloop.run ops ~due:(Openloop.schedule ~start:0. ~rate:10. ~count:2));
  check_int "deferred work drained" 0 !pending

(* ------------------------------------------------------------------ mix *)

let test_mix_deterministic () =
  let a = Mix.draw ~seed:5 ~count:500 and b = Mix.draw ~seed:5 ~count:500 in
  check_bool "same seed, same mix" true (a = b);
  check_bool "other seed, other mix" false (a = Mix.draw ~seed:6 ~count:500);
  check_bool "prefix-stable" true (Array.sub a 0 100 = Mix.draw ~seed:5 ~count:100);
  let counts seed =
    let c = Array.make 13 0 in
    Array.iter
      (function Mix.Fresh _ -> c.(12) <- c.(12) + 1 | Mix.Hot h -> c.(h) <- c.(h) + 1)
      (Mix.draw ~seed ~count:600);
    c
  in
  let c9 = counts 9 in
  check_int "one fresh per block" 60 c9.(12);
  Array.iteri
    (fun h n -> if h < 12 then check_bool "hot programs balanced" true (n = 45))
    c9;
  check_bool "composition independent of the seed" true (counts 10 = c9)

let test_programs_deterministic () =
  let hot = Lazy.force Mix.hot_set in
  check_int "twelve hot programs" 12 (Array.length hot);
  check_int "distinct names" 12
    (List.length (List.sort_uniq compare (Array.to_list (Array.map (fun p -> p.Mix.name) hot))));
  let text (p : Mix.program) = Sf_fuzz.Corpus.to_string p.Mix.spec in
  check_bool "fresh program is a function of its seed" true
    (text (Mix.fresh 1234) = text (Mix.fresh 1234));
  check_bool "different seeds, different programs" false
    (text (Mix.fresh 1234) = text (Mix.fresh 1235))

let () =
  Alcotest.run "perfbench"
    [
      ( "pstats",
        [
          Alcotest.test_case "iqr" `Quick test_iqr;
          Alcotest.test_case "tail rule" `Quick test_tail_rule;
          Alcotest.test_case "tail has ten beyond" `Quick test_tail_has_ten_beyond;
        ] );
      ( "openloop",
        [
          Alcotest.test_case "latency from due" `Quick test_latency_from_due;
          Alcotest.test_case "on-time generator" `Quick test_on_time_generator;
          Alcotest.test_case "busy and failed" `Quick test_busy_and_failed;
          Alcotest.test_case "idle work finished" `Quick test_idle_work_is_finished;
        ] );
      ( "mix",
        [
          Alcotest.test_case "seed determinism" `Quick test_mix_deterministic;
          Alcotest.test_case "programs" `Quick test_programs_deterministic;
        ] );
    ]
