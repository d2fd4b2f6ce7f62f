(* Tests for Idtmc and Robust (interval DTMCs, robust verification). *)

(* Branch with uncertain split: 0 -> goal in [0.2, 0.4], fail gets the
   rest. *)
let uncertain () =
  Idtmc.make ~n:3 ~init:0
    ~transitions:
      [ (0, 1, 0.2, 0.4); (0, 2, 0.6, 0.8);
        (1, 1, 1.0, 1.0); (2, 2, 1.0, 1.0);
      ]
    ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
    ()

let test_construction () =
  let d = uncertain () in
  Alcotest.(check int) "n" 3 (Idtmc.num_states d);
  Alcotest.(check int) "edges" 2 (List.length (Idtmc.edges d 0));
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "lo > hi" (fun () ->
      Idtmc.make ~n:1 ~init:0 ~transitions:[ (0, 0, 0.9, 0.5) ] ());
  expect_invalid "hi > 1" (fun () ->
      Idtmc.make ~n:1 ~init:0 ~transitions:[ (0, 0, 0.5, 1.5) ] ());
  expect_invalid "infeasible row (lo sum > 1)" (fun () ->
      Idtmc.make ~n:2 ~init:0
        ~transitions:[ (0, 0, 0.7, 0.8); (0, 1, 0.6, 0.9); (1, 1, 1.0, 1.0) ]
        ());
  expect_invalid "infeasible row (hi sum < 1)" (fun () ->
      Idtmc.make ~n:2 ~init:0
        ~transitions:[ (0, 0, 0.1, 0.3); (0, 1, 0.1, 0.3); (1, 1, 1.0, 1.0) ]
        ());
  expect_invalid "duplicate edge" (fun () ->
      Idtmc.make ~n:1 ~init:0
        ~transitions:[ (0, 0, 0.4, 0.6); (0, 0, 0.4, 0.6) ]
        ())

let test_member_midpoint () =
  let d = uncertain () in
  let inside =
    Dtmc.make ~n:3 ~init:0
      ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
      ()
  in
  Alcotest.(check bool) "member" true (Idtmc.member d inside);
  let outside =
    Dtmc.make ~n:3 ~init:0
      ~transitions:[ (0, 1, 0.5); (0, 2, 0.5); (1, 1, 1.0); (2, 2, 1.0) ]
      ()
  in
  Alcotest.(check bool) "not member" false (Idtmc.member d outside);
  let mid = Idtmc.midpoint d in
  Alcotest.(check (float 1e-12)) "midpoint" 0.3 (Dtmc.prob mid 0 1);
  Alcotest.(check bool) "midpoint is member" true (Idtmc.member d mid)

let test_of_dtmc () =
  let base =
    Dtmc.make ~n:2 ~init:0
      ~transitions:[ (0, 1, 0.9); (0, 0, 0.1); (1, 1, 1.0) ]
      ~labels:[ ("goal", [ 1 ]) ]
      ()
  in
  let d = Idtmc.of_dtmc ~radius:0.05 base in
  (match List.find_opt (fun (t, _, _) -> t = 1) (Idtmc.edges d 0) with
   | Some (_, lo, hi) ->
     Alcotest.(check (float 1e-12)) "lo" 0.85 lo;
     Alcotest.(check (float 1e-12)) "hi" 0.95 hi
   | None -> Alcotest.fail "edge lost");
  Alcotest.(check bool) "contains original" true (Idtmc.member d base)

let test_resolve_row () =
  let edges = [ (0, 0.2, 0.4); (1, 0.6, 0.8) ] in
  let x = [| 1.0; 0.0 |] in
  (* optimistic for x: pour max into target 0 *)
  let p = Robust.resolve_row Robust.Optimistic edges x in
  Alcotest.(check (float 1e-12)) "optimistic to 0" 0.4 (List.assoc 0 p);
  Alcotest.(check (float 1e-12)) "rest to 1" 0.6 (List.assoc 1 p);
  let p = Robust.resolve_row Robust.Pessimistic edges x in
  Alcotest.(check (float 1e-12)) "pessimistic to 0" 0.2 (List.assoc 0 p);
  Alcotest.(check (float 1e-12)) "rest to 1" 0.8 (List.assoc 1 p);
  (* distributions always sum to 1 *)
  List.iter
    (fun sem ->
       let p = Robust.resolve_row sem edges x in
       Alcotest.(check (float 1e-12)) "stochastic" 1.0
         (List.fold_left (fun acc (_, q) -> acc +. q) 0.0 p))
    [ Robust.Pessimistic; Robust.Optimistic ]

let test_reachability_bounds () =
  let d = uncertain () in
  let worst = Robust.reachability Robust.Pessimistic d ~target:[ 1 ] in
  let best = Robust.reachability Robust.Optimistic d ~target:[ 1 ] in
  Alcotest.(check (float 1e-9)) "worst = lo" 0.2 worst.(0);
  Alcotest.(check (float 1e-9)) "best = hi" 0.4 best.(0);
  (* the midpoint chain's exact value lies between *)
  let mid =
    Check_dtmc.path_probabilities (Idtmc.midpoint d) (Eventually (Prop "goal"))
  in
  Alcotest.(check bool) "midpoint bracketed" true
    (worst.(0) <= mid.(0) && mid.(0) <= best.(0))

let test_robust_check () =
  let d = uncertain () in
  Alcotest.(check bool) "P>=0.15 robustly" true
    (Robust.check d (Pctl_parser.parse "P>=0.15 [ F goal ]"));
  Alcotest.(check bool) "P>=0.3 not robust (worst is 0.2)" false
    (Robust.check d (Pctl_parser.parse "P>=0.3 [ F goal ]"));
  Alcotest.(check bool) "P<=0.45 robustly" true
    (Robust.check d (Pctl_parser.parse "P<=0.45 [ F goal ]"));
  Alcotest.(check bool) "P<=0.35 not robust (best is 0.4)" false
    (Robust.check d (Pctl_parser.parse "P<=0.35 [ F goal ]"));
  match Robust.check d (Pctl_parser.parse "P>=0.1 [ X goal ]") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-F path formula should be rejected"

let test_robust_reward () =
  (* geometric with uncertain success probability in [0.25, 0.5]:
     E[attempts] ranges over [2, 4]. *)
  let d =
    Idtmc.make ~n:2 ~init:0
      ~transitions:[ (0, 0, 0.5, 0.75); (0, 1, 0.25, 0.5); (1, 1, 1.0, 1.0) ]
      ~labels:[ ("goal", [ 1 ]) ]
      ~rewards:[| 1.0; 0.0 |]
      ()
  in
  let worst = Robust.expected_reward Robust.Pessimistic d ~target:[ 1 ] in
  let best = Robust.expected_reward Robust.Optimistic d ~target:[ 1 ] in
  Alcotest.(check (float 1e-6)) "max cost 4" 4.0 worst.(0);
  Alcotest.(check (float 1e-6)) "min cost 2" 2.0 best.(0);
  Alcotest.(check bool) "R<=4 robust" true
    (Robust.check d (Pctl_parser.parse "R<=4 [ F goal ]"));
  Alcotest.(check bool) "R<=3 not robust" false
    (Robust.check d (Pctl_parser.parse "R<=3 [ F goal ]"));
  (* value iteration converges from below: stay off the exact boundary *)
  Alcotest.(check bool) "R>=1.99 robust" true
    (Robust.check d (Pctl_parser.parse "R>=1.99 [ F goal ]"));
  Alcotest.(check bool) "R>=2.5 not robust" false
    (Robust.check d (Pctl_parser.parse "R>=2.5 [ F goal ]"));
  (* target avoidable forever -> infinite worst-case cost *)
  let trap =
    Idtmc.make ~n:2 ~init:0
      ~transitions:[ (0, 0, 0.5, 1.0); (0, 1, 0.0, 0.5); (1, 1, 1.0, 1.0) ]
      ~rewards:[| 1.0; 0.0 |]
      ()
  in
  let worst = Robust.expected_reward Robust.Pessimistic trap ~target:[ 1 ] in
  Alcotest.(check bool) "divergent" true (worst.(0) = Float.infinity)

(* property: the robust bounds bracket every sampled member chain *)
let props =
  [ QCheck_alcotest.to_alcotest
      (QCheck2.Test.make ~name:"robust bounds bracket members" ~count:100
         ~print:(fun t -> Printf.sprintf "t=%.3f" t)
         QCheck2.Gen.(float_range 0.0 1.0)
         (fun t ->
            let d = uncertain () in
            (* a member chain: goal prob = 0.2 + 0.2 t *)
            let p = 0.2 +. (0.2 *. t) in
            let member =
              Dtmc.make ~n:3 ~init:0
                ~transitions:
                  [ (0, 1, p); (0, 2, 1.0 -. p); (1, 1, 1.0); (2, 2, 1.0) ]
                ~labels:[ ("goal", [ 1 ]) ]
                ()
            in
            let exact = Check_dtmc.path_probability member (Eventually (Prop "goal")) in
            let worst = (Robust.reachability Robust.Pessimistic d ~target:[ 1 ]).(0) in
            let best = (Robust.reachability Robust.Optimistic d ~target:[ 1 ]).(0) in
            Idtmc.member d member
            && worst -. 1e-9 <= exact
            && exact <= best +. 1e-9));
  ]

let () =
  Alcotest.run "interval"
    [ ( "idtmc",
        [ Alcotest.test_case "construction" `Quick test_construction;
          Alcotest.test_case "member/midpoint" `Quick test_member_midpoint;
          Alcotest.test_case "of_dtmc" `Quick test_of_dtmc;
        ] );
      ( "robust",
        [ Alcotest.test_case "resolve_row" `Quick test_resolve_row;
          Alcotest.test_case "reachability bounds" `Quick test_reachability_bounds;
          Alcotest.test_case "check" `Quick test_robust_check;
          Alcotest.test_case "rewards" `Quick test_robust_reward;
        ] );
      ("properties", props);
    ]
