(* Self-tests of the benchmark harness, at a tiny budget: the tail rule,
   span self-time arithmetic, and generator determinism. *)

open Tml_perfbench

let test_tail_rule () =
  let check n want =
    Alcotest.(check (option (float 0.0))) (Printf.sprintf "n=%d" n) want
      (Stats.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 50.0);
  check 99 (Some 50.0);
  check 100 (Some 90.0);
  check 999 (Some 90.0);
  check 1000 (Some 99.0);
  check 10000 (Some 99.9);
  Alcotest.(check bool) "p90 needs 100 samples" false (Stats.supports 99 90.0);
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.0)) "nearest-rank p50" 50.0 (Stats.percentile a 50.0);
  Alcotest.(check (float 0.0)) "nearest-rank p90" 90.0 (Stats.percentile a 90.0);
  Alcotest.(check (float 0.0)) "nearest-rank p99" 99.0 (Stats.percentile a 99.0);
  (* 500 samples over 5 s: p90 supports 5 slices of 100; one slice's
     burst of large values does not reach the median *)
  let samples =
    List.init 500 (fun i ->
        let t = float_of_int i /. 100.0 in
        (t, if i >= 400 then 1000.0 else float_of_int (i mod 100)))
  in
  Alcotest.(check (option (float 0.0))) "sliced p90" (Some 89.0)
    (Stats.sliced_tail ~start:0.0 ~stop:5.0 samples 90.0);
  Alcotest.(check (option (float 0.0))) "too few samples" None
    (Stats.sliced_tail ~start:0.0 ~stop:5.0 (List.filteri (fun i _ -> i < 99) samples) 90.0)

let span id parent start stop = { Span.id; parent; req = 1; name = string_of_int id; start; stop }

let test_self_time () =
  let spans =
    [
      span 1 0 0.0 10.0;
      (* overlapping children count once *)
      span 2 1 1.0 3.0;
      span 3 1 2.0 5.0;
      (* a child running past its parent is clipped to the parent *)
      span 4 1 8.0 12.0;
      (* a grandchild only reduces its own parent *)
      span 5 3 2.5 3.5;
      (* replays after the root's interval do not reduce it *)
      span 6 1 20.0 21.0;
    ]
  in
  let self = Span.self_times spans in
  let of_id id = List.assoc id (List.map (fun (s, t) -> (s.Span.id, t)) self) in
  Alcotest.(check (float 1e-9)) "root" 4.0 (of_id 1);
  Alcotest.(check (float 1e-9)) "leaf" 2.0 (of_id 2);
  Alcotest.(check (float 1e-9)) "with grandchild" 2.0 (of_id 3);
  Alcotest.(check (float 1e-9)) "clipped child" 4.0 (of_id 4);
  Alcotest.(check (float 1e-9)) "disjoint" 1.0 (of_id 6)

let render r = Wire.render (Wire.request_to_json ~id:1 (Wire.Submit r))

let test_generators () =
  let mix seed = List.init 60 (fun i -> render (Gen.mix_request ~seed i)) in
  Alcotest.(check bool) "repair-mix: same seed, same bytes" true (mix 5 = mix 5);
  Alcotest.(check bool) "repair-mix: seeds differ" true (mix 5 <> mix 6);
  let digests =
    List.init 60 (fun i -> Job.digest (Wire.job_of_request (Gen.mix_request ~seed:5 i)))
  in
  Alcotest.(check int) "repair-mix: every digest fresh" 60
    (List.length (List.sort_uniq compare digests));
  let kinds = List.init 25 (fun i -> fst (Gen.mix_slot ~seed:5 i)) in
  let count k = List.length (List.filter (( = ) k) kinds) in
  Alcotest.(check (list int)) "repair-mix: 11/9/4/1 per block" [ 11; 9; 4; 1 ]
    (List.map count [ Gen.Model; Gen.Data; Gen.Check; Gen.Reward ]);
  let pool seed = Array.map render (Gen.hot_pool ~seed) in
  Alcotest.(check bool) "serve-hot: same pool" true (pool 5 = pool 5);
  Alcotest.(check int) "serve-hot: 1024 distinct jobs" Gen.hot_pool_size
    (List.length (List.sort_uniq compare (Array.to_list (pool 5))));
  let picks seed = List.init 200 (fun i -> Gen.hot_pick ~seed ~conn:0 i) in
  Alcotest.(check bool) "serve-hot: same picks" true (picks 5 = picks 5);
  let chunks seed = List.init 20 (fun k -> Gen.watch_chunk ~seed 3 k) in
  Alcotest.(check bool) "watch-stream: same chunks" true (chunks 5 = chunks 5);
  Alcotest.(check bool) "watch-stream: seeds differ" true (chunks 5 <> chunks 6)

let () =
  Alcotest.run "perfbench"
    [
      ( "harness",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "span self time" `Quick test_self_time;
          Alcotest.test_case "generator determinism" `Quick test_generators;
        ] );
    ]
