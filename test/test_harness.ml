open Sf_harness

let check_bool = Alcotest.(check bool)

let test_timer () =
  let count = ref 0 in
  let t = Timer.time ~warmup:2 ~repeats:3 (fun () -> incr count) in
  Alcotest.(check int) "warmup + repeats" 5 !count;
  check_bool "non-negative" true (t >= 0.);
  let samples = Timer.time_all ~warmup:0 ~repeats:4 (fun () -> ()) in
  Alcotest.(check int) "sample count" 4 (Array.length samples)

let () =
  Alcotest.run "sf_harness"
    [
      ("timer", [ Alcotest.test_case "basics" `Quick test_timer ]);
    ]
