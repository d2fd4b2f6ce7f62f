(* Tests for Model_repair, Data_repair, Reward_repair and Pipeline on small
   synthetic models (the full §V case studies are exercised in
   test_casestudies.ml). *)

module MR = Model_repair
module DR = Data_repair
module RR = Reward_repair

let parse = Pctl_parser.parse

(* 0 -> goal(1) 0.3 | fail(2) 0.7, absorbing. *)
let branch () =
  Dtmc.make ~n:3 ~init:0
    ~transitions:[ (0, 1, 0.3); (0, 2, 0.7); (1, 1, 1.0); (2, 2, 1.0) ]
    ~labels:[ ("goal", [ 1 ]); ("fail", [ 2 ]) ]
    ()

(* delta: +v on 0->1, -v on 0->2 *)
let branch_spec ?(hi = 0.5) () =
  {
    MR.variables = [ ("v", 0.0, hi) ];
    deltas =
      [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
  }

let test_model_repair_feasible () =
  let d = branch () in
  (* Need P(F goal) >= 0.5: v must rise from 0.3 to 0.5, so v* = 0.2. *)
  match MR.repair d (parse "P>=0.5 [ F goal ]") (branch_spec ()) with
  | MR.Repaired r ->
    Alcotest.(check (float 1e-3)) "v*" 0.2 (List.assoc "v" r.MR.assignment);
    Alcotest.(check (float 1e-3)) "achieved" 0.5 r.MR.achieved_value;
    Alcotest.(check (float 1e-3)) "cost = v*^2" 0.04 r.MR.cost;
    Alcotest.(check bool) "verified" true r.MR.verified;
    Alcotest.(check (float 1e-3)) "model edge updated" 0.5 (Dtmc.prob r.MR.dtmc 0 1)
  | MR.Already_satisfied _ -> Alcotest.fail "not already satisfied"
  | MR.Infeasible _ -> Alcotest.fail "should be feasible"

let test_model_repair_already () =
  let d = branch () in
  match MR.repair d (parse "P>=0.25 [ F goal ]") (branch_spec ()) with
  | MR.Already_satisfied (Some v) -> Alcotest.(check (float 1e-9)) "value" 0.3 v
  | _ -> Alcotest.fail "expected Already_satisfied"

let test_model_repair_infeasible () =
  let d = branch () in
  (* v <= 0.1 cannot lift 0.3 to 0.6. *)
  match MR.repair d (parse "P>=0.6 [ F goal ]") (branch_spec ~hi:0.1 ()) with
  | MR.Infeasible { min_violation } ->
    Alcotest.(check bool) "violation ~ 0.2" true
      (min_violation > 0.1 && min_violation < 0.3)
  | _ -> Alcotest.fail "expected Infeasible"

let test_model_repair_validation () =
  let d = branch () in
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "unknown edge" (fun () ->
      MR.repair d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0) ];
          deltas = [ (1, 2, Ratfun.var "v") ];
        });
  expect_invalid "undeclared variable" (fun () ->
      MR.repair d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0) ];
          deltas = [ (0, 1, Ratfun.var "w"); (0, 2, Ratfun.neg (Ratfun.var "w")) ];
        });
  expect_invalid "unbalanced row" (fun () ->
      MR.repair d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0) ];
          deltas = [ (0, 1, Ratfun.var "v") ];
        });
  expect_invalid "duplicate variables" (fun () ->
      MR.repair d (parse "P>=0.5 [ F goal ]")
        {
          MR.variables = [ ("v", 0.0, 1.0); ("v", 0.0, 1.0) ];
          deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
        })

let test_model_repair_unsupported_property () =
  let d = branch () in
  match
    MR.repair d
      (parse "P>=0.5 [ F (P>=1 [ G goal ]) ]")
      (branch_spec ())
  with
  | exception Pquery.Unsupported _ -> ()
  | _ -> Alcotest.fail "expected Unsupported"

let test_model_repair_reward_property () =
  (* geometric chain: E[steps to goal] = 1/p, p = 0.2 -> 5 attempts.
     Repair to R <= 3: p must become >= 1/3. *)
  let d =
    Dtmc.make ~n:2 ~init:0
      ~transitions:[ (0, 0, 0.8); (0, 1, 0.2); (1, 1, 1.0) ]
      ~labels:[ ("goal", [ 1 ]) ]
      ~rewards:[| 1.0; 0.0 |]
      ()
  in
  let spec =
    {
      MR.variables = [ ("v", 0.0, 0.5) ];
      deltas =
        [ (0, 1, Ratfun.var "v"); (0, 0, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  match MR.repair d (parse "R<=3 [ F goal ]") spec with
  | MR.Repaired r ->
    Alcotest.(check (float 1e-3)) "v* = 1/3 - 0.2" (1.0 /. 3.0 -. 0.2)
      (List.assoc "v" r.MR.assignment);
    Alcotest.(check bool) "verified" true r.MR.verified
  | _ -> Alcotest.fail "expected Repaired"

(* ---------------- Data repair ---------------- *)

let biased_traces ~good ~bad =
  List.init good (fun _ -> Trace.of_states [ 0; 1 ])
  @ List.init bad (fun _ -> Trace.of_states [ 0; 2 ])

let test_data_repair_feasible () =
  (* 30% of traces reach goal; require P(F goal) >= 0.5 by dropping some of
     the bad group. Need (1-x)*70 <= 30 -> x >= 4/7. *)
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let sp = DR.spec ~pinned:[ "good" ] groups in
  match
    DR.repair ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      (parse "P>=0.5 [ F goal ]")
      sp
  with
  | DR.Repaired r ->
    Alcotest.(check (float 5e-3)) "drop(bad)" (4.0 /. 7.0)
      (List.assoc "bad" r.DR.drop_fractions);
    Alcotest.(check (float 1e-9)) "drop(good) pinned" 0.0
      (List.assoc "good" r.DR.drop_fractions);
    Alcotest.(check bool) "verified" true r.DR.verified;
    Alcotest.(check bool) "dropped ~ 40 traces" true
      (r.DR.dropped_traces > 38.0 && r.DR.dropped_traces < 43.0)
  | DR.Already_satisfied _ -> Alcotest.fail "not already satisfied"
  | DR.Infeasible _ -> Alcotest.fail "should be feasible"

let test_data_repair_already () =
  let groups = [ ("all", biased_traces ~good:80 ~bad:20) ] in
  match
    DR.repair ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      (parse "P>=0.5 [ F goal ]")
      (DR.spec groups)
  with
  | DR.Already_satisfied (Some v) -> Alcotest.(check (float 1e-9)) "value" 0.8 v
  | _ -> Alcotest.fail "expected Already_satisfied"

let test_data_repair_infeasible () =
  (* Everything pinned: nothing can be dropped. *)
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let sp = DR.spec ~pinned:[ "good"; "bad" ] groups in
  match
    DR.repair ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      (parse "P>=0.5 [ F goal ]")
      sp
  with
  | DR.Infeasible _ -> ()
  | _ -> Alcotest.fail "expected Infeasible"

let test_data_repair_spec_validation () =
  (match DR.spec ~max_drop:1.5 [ ("g", []) ] with
   | exception Invalid_argument _ -> ()
   | _ -> Alcotest.fail "bad max_drop accepted");
  match DR.spec ~pinned:[ "nope" ] [ ("g", []) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown pinned group accepted"

(* ---------------- Backend x repair-kind matrix ---------------- *)

(* Both repairs run the same loop (Repair_backend.solve); each backend
   must repair the feasible 3-state input, certify exactly under [Region],
   match the NLP's cost under [Smc_prefilter], and report the analytic
   gap on the infeasible input. *)
let check_backend backend ~nlp_cost ~verified ~cost certificate =
  Alcotest.(check bool) "verified" true verified;
  (match (backend, certificate) with
   | Repair_backend.Region, Some c ->
     Alcotest.(check bool) "certified gap <= 5%" true
       (c.Region_repair.optimality_gap <= 0.05)
   | Repair_backend.Region, None -> Alcotest.fail "region repair uncertified"
   | (Repair_backend.Nlp_solver | Repair_backend.Smc_prefilter), Some _ ->
     Alcotest.fail "certificate off the region backend"
   | (Repair_backend.Nlp_solver | Repair_backend.Smc_prefilter), None -> ());
  if backend = Repair_backend.Smc_prefilter then
    Alcotest.(check (float 0.0)) "same cost as nlp" (nlp_cost ()) cost

let test_model_repair_backend backend () =
  let d = branch () and phi = parse "P>=0.5 [ F goal ]" in
  let repaired backend =
    match MR.repair ~backend d phi (branch_spec ()) with
    | MR.Repaired r -> r
    | _ -> Alcotest.fail "expected Repaired"
  in
  let r = repaired backend in
  check_backend backend
    ~nlp_cost:(fun () -> (repaired Repair_backend.Nlp_solver).MR.cost)
    ~verified:r.MR.verified ~cost:r.MR.cost r.MR.certificate;
  (* v <= 0.1 lifts P(F goal) to at most 0.4: 0.1 short of the bound *)
  match MR.repair ~backend d phi (branch_spec ~hi:0.1 ()) with
  | MR.Infeasible { min_violation } ->
    Alcotest.(check (float 1e-5)) "min_violation" 0.1 min_violation
  | _ -> Alcotest.fail "expected Infeasible"

let test_data_repair_backend backend () =
  let repair backend pinned =
    DR.repair ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~backend
      (parse "P>=0.5 [ F goal ]")
      (DR.spec ~pinned
         [ ("good", biased_traces ~good:30 ~bad:0);
           ("bad", biased_traces ~good:0 ~bad:70);
         ])
  in
  let repaired backend =
    match repair backend [ "good" ] with
    | DR.Repaired r -> r
    | _ -> Alcotest.fail "expected Repaired"
  in
  let r = repaired backend in
  Alcotest.(check (float 0.0)) "pinned group kept" 0.0
    (List.assoc "good" r.DR.drop_fractions);
  check_backend backend
    ~nlp_cost:(fun () -> (repaired Repair_backend.Nlp_solver).DR.cost)
    ~verified:r.DR.verified ~cost:r.DR.cost r.DR.certificate;
  (* all pinned: the learned 0.3 is 0.2 short of the bound *)
  match repair backend [ "good"; "bad" ] with
  | DR.Infeasible { min_violation } ->
    Alcotest.(check (float 1e-5)) "min_violation" 0.2 min_violation
  | _ -> Alcotest.fail "expected Infeasible"

(* ---------------- Reward repair ---------------- *)

(* Two-path MDP with features: risky path passes a bad state. *)
let rr_mdp () =
  Mdp.make ~n:5 ~init:0
    ~actions:
      [ (0, "risky", [ (1, 1.0) ]);
        (0, "safe", [ (2, 1.0) ]);
        (1, "go", [ (3, 1.0) ]);
        (2, "go", [ (3, 1.0) ]);
        (3, "go", [ (4, 1.0) ]);
        (4, "stay", [ (4, 1.0) ]);
      ]
    ~labels:[ ("bad", [ 1 ]); ("goal", [ 4 ]) ]
    ~features:
      [| [| 0.0; 1.0; 0.0 |] (* s0 *);
         [| 1.0; 0.0; 0.0 |] (* s1: bad *);
         [| 0.0; 0.5; 0.0 |] (* s2: slightly less comfortable *);
         [| 0.0; 1.0; 0.0 |];
         [| 0.0; 0.0; 1.0 |] (* goal *);
      |]
    ()

let test_reward_repair_q () =
  let m = rr_mdp () in
  (* theta makes the bad state attractive: feature0 weight positive *)
  let theta = [| 0.5; 0.1; 1.0 |] in
  let q0 = Value.q_values ~gamma:0.9 (Irl.apply_reward m theta) in
  Alcotest.(check bool) "initially risky preferred" true
    (List.assoc "risky" q0.(0) > List.assoc "safe" q0.(0));
  let c = { RR.state = 0; better = "safe"; worse = "risky"; margin = 1e-4 } in
  match RR.repair_q ~gamma:0.9 m ~theta ~constraints:[ c ] with
  | RR.Repaired r ->
    Alcotest.(check bool) "verified" true r.RR.verified;
    Alcotest.(check string) "policy flips to safe" "safe" r.RR.policy.(0);
    Alcotest.(check bool) "cost positive" true (r.RR.cost > 0.0);
    let gap = List.assoc c r.RR.q_gaps in
    Alcotest.(check bool) "gap >= margin" true (gap >= c.RR.margin -. 1e-9)
  | RR.Already_satisfied -> Alcotest.fail "constraint was violated initially"
  | RR.Infeasible _ -> Alcotest.fail "should be feasible"

let test_reward_repair_already () =
  let m = rr_mdp () in
  let theta = [| -1.0; 0.5; 1.0 |] in
  let c = { RR.state = 0; better = "safe"; worse = "risky"; margin = 1e-4 } in
  match RR.repair_q ~gamma:0.9 m ~theta ~constraints:[ c ] with
  | RR.Already_satisfied -> ()
  | _ -> Alcotest.fail "expected Already_satisfied"

let test_reward_repair_validation () =
  let m = rr_mdp () in
  let expect_invalid msg f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" msg
  in
  expect_invalid "bad state" (fun () ->
      RR.repair_q m ~theta:[| 0.0; 0.0; 0.0 |]
        ~constraints:[ { RR.state = 99; better = "a"; worse = "b"; margin = 0.0 } ]);
  expect_invalid "bad action" (fun () ->
      RR.repair_q m ~theta:[| 0.0; 0.0; 0.0 |]
        ~constraints:[ { RR.state = 0; better = "jump"; worse = "risky"; margin = 0.0 } ]);
  expect_invalid "theta dim" (fun () ->
      RR.repair_q m ~theta:[| 0.0 |]
        ~constraints:[ { RR.state = 0; better = "safe"; worse = "risky"; margin = 0.0 } ]);
  expect_invalid "no constraints" (fun () ->
      RR.repair_q m ~theta:[| 0.0; 0.0; 0.0 |] ~constraints:[]);
  List.iter
    (fun gamma ->
       expect_invalid (Printf.sprintf "gamma %g" gamma) (fun () ->
           RR.repair_q ~gamma m ~theta:[| 0.0; 0.0; 0.0 |]
             ~constraints:
               [ { RR.state = 0; better = "safe"; worse = "risky"; margin = 0.0 } ]))
    [ 1.0; 0.0; -0.5; 1.5; Float.nan ]

(* Differential test: the exact per-policy evaluator that steers the NLP
   against the value-iteration Q-table that verifies its result. *)

(* n states, 3 actions each over 3 distinct random successors, random
   action rewards and k = 3 features in [0, 1] *)
let random_feature_mdp seed ~n =
  let rng = Prng.create seed in
  let successors () =
    let perm = Array.init n Fun.id in
    Prng.shuffle rng perm;
    let w = Array.init 3 (fun _ -> 0.05 +. Prng.float rng) in
    let total = Array.fold_left ( +. ) 0.0 w in
    List.init 3 (fun i -> (perm.(i), w.(i) /. total))
  in
  let names = [ "a"; "b"; "c" ] in
  Mdp.make ~n ~init:0
    ~actions:
      (List.concat_map
         (fun s -> List.map (fun a -> (s, a, successors ())) names)
         (List.init n Fun.id))
    ~action_rewards:
      (List.concat_map
         (fun s -> List.map (fun a -> ((s, a), Prng.uniform rng (-0.5) 0.5)) names)
         (List.init n Fun.id))
    ~features:(Array.init n (fun _ -> Array.init 3 (fun _ -> Prng.float rng)))
    ()

(* every ordered pair of distinct actions in every state *)
let all_gaps m =
  List.concat_map
    (fun s ->
       let names = Mdp.action_names m s in
       List.concat_map
         (fun better ->
            List.filter_map
              (fun worse ->
                 if better = worse then None
                 else Some { RR.state = s; better; worse; margin = 0.0 })
              names)
         names)
    (List.init (Mdp.num_states m) Fun.id)

let vi_greedy ~gamma m theta =
  fst (Value.optimal_policy ~gamma (Irl.apply_reward m theta))

(* points on both sides of a greedy-policy switch: bisect the segment
   between two θ with different greedy policies down to the switch, then
   step off it by shrinking offsets *)
let switch_points ~gamma m rng k =
  let rand () = Array.init k (fun _ -> Prng.uniform rng (-2.0) 2.0) in
  let lerp a b t = Array.mapi (fun i ai -> ai +. (t *. (b.(i) -. ai))) a in
  let rec pair tries =
    if tries = 0 then None
    else
      let a = rand () and b = rand () in
      if vi_greedy ~gamma m a <> vi_greedy ~gamma m b then Some (a, b)
      else pair (tries - 1)
  in
  match pair 200 with
  | None -> []
  | Some (a, b) ->
    let pa = vi_greedy ~gamma m a in
    let lo = ref 0.0 and hi = ref 1.0 in
    for _ = 1 to 50 do
      let mid = 0.5 *. (!lo +. !hi) in
      if vi_greedy ~gamma m (lerp a b mid) = pa then lo := mid else hi := mid
    done;
    List.concat_map
      (fun d -> [ lerp a b (!lo -. d); lerp a b (!hi +. d) ])
      [ 1e-3; 1e-5; 1e-7; 1e-9; 0.0 ]

let check_evaluator name ~gamma m ~seed =
  let k = Mdp.feature_dim m in
  let rng = Prng.create seed in
  let gaps = all_gaps m in
  let ev = RR.gap_evaluator ~gamma m in
  let box =
    List.init 200 (fun _ -> Array.init k (fun _ -> Prng.uniform rng (-2.0) 2.0))
  in
  let near_switch =
    List.concat (List.init 4 (fun _ -> switch_points ~gamma m rng k))
  in
  Alcotest.(check bool) (name ^ ": found a policy switch") true (near_switch <> []);
  let worst = ref 0.0 in
  List.iter
    (fun theta ->
       let q = Value.q_values ~gamma (Irl.apply_reward m theta) in
       List.iter
         (fun c ->
            let row = q.(c.RR.state) in
            let reference =
              List.assoc c.RR.better row -. List.assoc c.RR.worse row
            in
            worst :=
              Float.max !worst
                (Float.abs (RR.exact_gap ev theta c -. reference)))
         gaps)
    (box @ near_switch);
  if !worst > 1e-8 then
    Alcotest.failf "%s: exact gap differs from value iteration by %g" name !worst

let test_exact_gap_car () =
  check_evaluator "car" ~gamma:0.9 (Car.mdp ()) ~seed:11

let test_exact_gap_rr_mdp () =
  check_evaluator "rr_mdp" ~gamma:0.9 (rr_mdp ()) ~seed:12

let test_exact_gap_random () =
  List.iter
    (fun (seed, n, gamma) ->
       check_evaluator (Printf.sprintf "random n=%d seed=%d" n seed) ~gamma
         (random_feature_mdp seed ~n) ~seed)
    [ (21, 20, 0.9); (22, 24, 0.8); (23, 30, 0.95) ]

let test_projection_weights () =
  let m = rr_mdp () in
  let theta = [| 0.5; 0.1; 1.0 |] in
  let risky = Trace.make [ (0, "risky"); (1, "go"); (3, "go") ] 4 in
  let safe = Trace.make [ (0, "safe"); (2, "go"); (3, "go") ] 4 in
  let rule = Trace_logic.never (Trace_logic.Atom (Trace_logic.Label "bad")) in
  (* without rules: risky has higher MaxEnt weight (feature0 rewarded) *)
  let w0 = RR.projection_weights m ~theta ~rules:[] [ risky; safe ] in
  Alcotest.(check bool) "risky heavier without rule" true
    (List.assq risky w0 > List.assq safe w0);
  (* with a strong rule, risky mass vanishes: Prop. 4's limit *)
  let w = RR.projection_weights m ~theta ~rules:[ (rule, 50.0) ] [ risky; safe ] in
  Alcotest.(check bool) "risky mass ~ 0" true (List.assq risky w < 1e-6);
  Alcotest.(check (float 1e-6)) "mass normalised" 1.0
    (List.fold_left (fun acc (_, w) -> acc +. w) 0.0 w);
  (* lambda = 0 leaves the distribution untouched *)
  let wfree = RR.projection_weights m ~theta ~rules:[ (rule, 0.0) ] [ risky; safe ] in
  Alcotest.(check (float 1e-9)) "lambda 0 no-op"
    (List.assq risky w0) (List.assq risky wfree);
  (* satisfying trajectories keep their relative mass *)
  Alcotest.(check bool) "errors" true
    (match RR.projection_weights m ~theta ~rules:[ (rule, -1.0) ] [ risky ] with
     | exception Invalid_argument _ -> true
     | _ -> false)

let test_projection_repair_flips_reward () =
  let m = rr_mdp () in
  let theta = [| 0.8; 0.1; 1.0 |] in
  let rng = Prng.create 3 in
  let trajs = RR.sample_trajectories rng m ~theta ~horizon:4 ~count:300 in
  let rule = Trace_logic.never (Trace_logic.Atom (Trace_logic.Label "bad")) in
  let theta' = RR.repair_by_projection m ~theta ~rules:[ (rule, 20.0) ] trajs in
  (* the repaired reward must no longer favour the bad-state feature *)
  Alcotest.(check bool) "bad-state weight reduced" true (theta'.(0) < theta.(0));
  let q = Value.q_values ~gamma:0.9 (Irl.apply_reward m theta') in
  Alcotest.(check bool) "safe preferred after projection repair" true
    (List.assoc "safe" q.(0) >= List.assoc "risky" q.(0))

let test_policy_satisfies () =
  let m = rr_mdp () in
  let rule = Trace_logic.never (Trace_logic.Atom (Trace_logic.Label "bad")) in
  Alcotest.(check bool) "safe policy ok" true
    (RR.policy_satisfies m [| "safe"; "go"; "go"; "go"; "stay" |] ~rules:[ rule ]
       ~horizon:10);
  Alcotest.(check bool) "risky policy violates" false
    (RR.policy_satisfies m [| "risky"; "go"; "go"; "go"; "stay" |] ~rules:[ rule ]
       ~horizon:10)

(* ---------------- Edge constraints certified by the box ---------------- *)

(* The NLP that Repair_backend solved before it dropped edge constraints
   the box certifies: the property constraint followed by both
   [0 < P(s,d) < 1] inequalities of every perturbed edge, with the same
   margins (1e-6 on the property, 1e-9 on edges) and the same cost. *)
let full_problem ~variables ~edges pmodel query =
  let vars = List.map (fun (n, _, _) -> n) variables in
  let edge_margin = 1e-9 in
  let edge_constraints =
    List.concat_map
      (fun (s, d) ->
         let a = Arena.compile ~vars (List.assoc d (Pdtmc.succ pmodel s)) in
         [ ( Printf.sprintf "edge_%d_%d_pos" s d,
             fun x -> edge_margin -. Arena.eval a x );
           ( Printf.sprintf "edge_%d_%d_lt1" s d,
             fun x -> Arena.eval a x -. 1.0 +. edge_margin );
         ])
      edges
  in
  Nlp.problem ~dim:(List.length vars)
    ~objective:(Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0)
    ~inequalities:
      (("property", Pquery.compile_violation ~margin:1e-6 query ~vars)
       :: edge_constraints)
    ~lower:(Array.of_list (List.map (fun (_, lo, _) -> lo) variables))
    ~upper:(Array.of_list (List.map (fun (_, _, hi) -> hi) variables))
    ()

let check_bits msg a b =
  Alcotest.(check int64) msg (Int64.bits_of_float a) (Int64.bits_of_float b)

(* [Repair_backend.solve] against the full NLP, under the plain penalty
   method and under the fallback ladder the served path uses: the same
   point, cost and rung bit for bit, or the same least violation. *)
let check_same_as_full name dtmc phi (spec : MR.spec) =
  let pmodel = MR.parametric_model dtmc spec in
  let edges =
    List.sort_uniq compare (List.map (fun (s, d, _) -> (s, d)) spec.MR.deltas)
  in
  let variables = spec.MR.variables in
  let problem =
    full_problem ~variables ~edges pmodel (Pquery.of_formula pmodel phi)
  in
  List.iter
    (fun fallback ->
       let name = if fallback then name ^ ", ladder" else name in
       let expected =
         if fallback then Nlp.solve_with_fallback ~starts:4 problem
         else (Nlp.solve ~starts:4 problem, "penalty")
       in
       match
         ( Repair_backend.solve Repair_backend.Nlp_solver ~fallback ~starts:4
             ~variables ~edges pmodel phi,
           expected )
       with
       | Ok r, (Nlp.Feasible s, rung) ->
         Array.iteri
           (fun i x ->
              check_bits (Printf.sprintf "%s: point %d" name i) x r.point.(i))
           s.Nlp.x;
         check_bits (name ^ ": cost") s.Nlp.objective_value r.cost;
         Alcotest.(check string) (name ^ ": rung") rung r.rung
       | Error v, (Nlp.Infeasible s, _) ->
         check_bits (name ^ ": least violation") s.Nlp.max_violation v
       | Ok _, (Nlp.Infeasible _, _) ->
         Alcotest.failf "%s: repaired, full NLP infeasible" name
       | Error _, (Nlp.Feasible _, _) ->
         Alcotest.failf "%s: infeasible, full NLP repaired" name)
    [ false; true ]

(* The paper's lane-change example (as in test_region.ml): f ranges over
   [0, 0.05], so the freeze edge 0.05 - f reaches 0 and keeps its
   constraint while the lane-change edge 0.57 + f is certified. *)
let lane_change_chain () =
  Dtmc.make ~n:6 ~init:0
    ~transitions:
      [ (0, 1, 0.57); (0, 2, 0.38); (0, 5, 0.05);
        (1, 3, 0.95); (1, 2, 0.05);
        (2, 4, 1.0); (3, 3, 1.0); (4, 4, 1.0); (5, 5, 1.0);
      ]
    ~labels:[ ("changedLane", [ 3 ]); ("reducedSpeed", [ 4 ]); ("frozen", [ 5 ]) ]
    ()

let test_pruned_lane_change () =
  check_same_as_full "lane change" (lane_change_chain ())
    (parse "P>0.99 [ F changedLane | reducedSpeed ]")
    {
      MR.variables = [ ("f", 0.0, 0.05) ];
      deltas = [ (0, 5, Ratfun.neg (Ratfun.var "f")); (0, 1, Ratfun.var "f") ];
    }

(* The six controllable-edge sets of the served benchmark's model
   repairs on the 3x3 WSN grid, each with a reachable and an unreachable
   expected-attempts bound (every edge is certified by the [0, 0.1]^2
   box, so these solves carry the property constraint alone). *)
let wsn_edge_sets =
  [ [ 1; 2; 3; 4; 5; 6; 7; 8 ]; [ 5; 7; 8 ]; [ 2; 4; 6; 8 ]; [ 1; 3; 5; 7 ];
    [ 4; 5; 7; 8 ]; [ 3; 6; 7; 8 ] ]

let test_pruned_wsn_edge_sets () =
  let p = Wsn.default_params in
  let full = Wsn.repair_spec p in
  List.iter
    (fun sources ->
       let deltas =
         List.filter (fun (s, _, _) -> List.mem s sources) full.MR.deltas
       in
       let used v =
         List.exists (fun (_, _, f) -> List.mem v (Ratfun.vars f)) deltas
       in
       let spec =
         { MR.variables = List.filter (fun (v, _, _) -> used v) full.MR.variables;
           deltas }
       in
       List.iter
         (fun bound ->
            check_same_as_full
              (Printf.sprintf "wsn {%s} R<=%d"
                 (String.concat "," (List.map string_of_int sources)) bound)
              (Wsn.chain p) (Wsn.property bound) spec)
         [ 44; 27 ])
    wsn_edge_sets

(* A box wide enough for the edge 0.7 - v to reach 0 (and 0.3 + v to
   pass 1): both edges keep their constraints.  Reaching 1 needs
   v >= 0.7 + 1e-6, which only the kept 0->2 constraint forbids. *)
let test_uncertified_edge_kept () =
  let d = branch () in
  let spec = branch_spec ~hi:1.0 () in
  check_same_as_full "wide branch" d (parse "P>=0.9 [ F goal ]") spec;
  (match MR.repair d (parse "P>=0.9 [ F goal ]") spec with
   | MR.Repaired r ->
     List.iter
       (fun (s, t, pr) ->
          if s <> t then
            Alcotest.(check bool)
              (Printf.sprintf "edge %d->%d = %g in (0,1)" s t pr)
              true
              (pr > 0.0 && pr < 1.0))
       (Dtmc.raw_transitions r.MR.dtmc)
   | _ -> Alcotest.fail "expected Repaired");
  let pmodel = MR.parametric_model d spec in
  match
    Repair_backend.solve Repair_backend.Nlp_solver ~starts:4
      ~variables:spec.MR.variables ~edges:[ (0, 1); (0, 2) ] pmodel
      (parse "P>=1 [ F goal ]")
  with
  | Ok r ->
    Alcotest.failf "repaired at v = %h: the 0->2 edge lost its constraint"
      r.point.(0)
  | Error v ->
    Alcotest.(check bool) "least violation is tiny" true (v > 0.0 && v < 1e-5)

(* ---------------- Pipeline ---------------- *)

let test_pipeline_original_ok () =
  let groups = [ ("all", biased_traces ~good:80 ~bad:20) ] in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  (match report.Pipeline.outcome with
   | Pipeline.Original_ok (Some v) -> Alcotest.(check (float 1e-9)) "v" 0.8 v
   | _ -> Alcotest.fail "expected Original_ok");
  (* report is printable *)
  Alcotest.(check bool) "printable" true
    (String.length (Format.asprintf "%a" Pipeline.pp_report report) > 0)

let test_pipeline_model_repair_stage () =
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let model_spec =
    {
      MR.variables = [ ("v", 0.0, 0.5) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~model_spec ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  match report.Pipeline.outcome with
  | Pipeline.Model_repaired r ->
    Alcotest.(check bool) "verified" true r.MR.verified
  | _ -> Alcotest.fail "expected Model_repaired"

let test_pipeline_data_repair_stage () =
  (* model repair too constrained -> falls through to data repair *)
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let model_spec =
    {
      MR.variables = [ ("v", 0.0, 0.01) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  let data_spec = DR.spec ~pinned:[ "good" ] groups in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~model_spec ~data_spec ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  match report.Pipeline.outcome with
  | Pipeline.Data_repaired r -> Alcotest.(check bool) "verified" true r.DR.verified
  | _ -> Alcotest.fail "expected Data_repaired"

let test_pipeline_unrepairable () =
  let groups =
    [ ("good", biased_traces ~good:30 ~bad:0);
      ("bad", biased_traces ~good:0 ~bad:70);
    ]
  in
  let model_spec =
    {
      MR.variables = [ ("v", 0.0, 0.01) ];
      deltas = [ (0, 1, Ratfun.var "v"); (0, 2, Ratfun.neg (Ratfun.var "v")) ];
    }
  in
  let data_spec = DR.spec ~pinned:[ "good"; "bad" ] groups in
  let report =
    Pipeline.run ~n:3 ~init:0
      ~labels:[ ("goal", [ 1 ]) ]
      ~model_spec ~data_spec ~groups
      (parse "P>=0.5 [ F goal ]")
  in
  match report.Pipeline.outcome with
  | Pipeline.Unrepairable { model_repair_violation; data_repair_violation } ->
    Alcotest.(check bool) "model violation recorded" true
      (model_repair_violation <> None);
    Alcotest.(check bool) "data violation recorded" true
      (data_repair_violation <> None)
  | _ -> Alcotest.fail "expected Unrepairable"

let () =
  Alcotest.run "core"
    [ ( "model repair",
        [ Alcotest.test_case "feasible" `Quick test_model_repair_feasible;
          Alcotest.test_case "already satisfied" `Quick test_model_repair_already;
          Alcotest.test_case "infeasible" `Quick test_model_repair_infeasible;
          Alcotest.test_case "validation" `Quick test_model_repair_validation;
          Alcotest.test_case "unsupported property" `Quick
            test_model_repair_unsupported_property;
          Alcotest.test_case "reward property" `Quick test_model_repair_reward_property;
        ] );
      ( "data repair",
        [ Alcotest.test_case "feasible" `Quick test_data_repair_feasible;
          Alcotest.test_case "already satisfied" `Quick test_data_repair_already;
          Alcotest.test_case "infeasible" `Quick test_data_repair_infeasible;
          Alcotest.test_case "spec validation" `Quick test_data_repair_spec_validation;
        ] );
      ( "backends",
        List.concat_map
          (fun (slug, backend) ->
             [ Alcotest.test_case ("model repair, " ^ slug) `Quick
                 (test_model_repair_backend backend);
               Alcotest.test_case ("data repair, " ^ slug) `Quick
                 (test_data_repair_backend backend);
             ])
          Repair_backend.all );
      ( "edge pruning",
        [ Alcotest.test_case "lane change" `Quick test_pruned_lane_change;
          Alcotest.test_case "wsn edge sets" `Quick test_pruned_wsn_edge_sets;
          Alcotest.test_case "uncertified edge kept" `Quick
            test_uncertified_edge_kept;
        ] );
      ( "reward repair",
        [ Alcotest.test_case "q-constraint repair" `Quick test_reward_repair_q;
          Alcotest.test_case "already satisfied" `Quick test_reward_repair_already;
          Alcotest.test_case "validation" `Quick test_reward_repair_validation;
          Alcotest.test_case "exact gap = value iteration (car)" `Quick
            test_exact_gap_car;
          Alcotest.test_case "exact gap = value iteration (rr_mdp)" `Quick
            test_exact_gap_rr_mdp;
          Alcotest.test_case "exact gap = value iteration (random MDPs)" `Quick
            test_exact_gap_random;
          Alcotest.test_case "projection weights (Prop. 4)" `Quick test_projection_weights;
          Alcotest.test_case "projection repair" `Quick test_projection_repair_flips_reward;
          Alcotest.test_case "policy_satisfies" `Quick test_policy_satisfies;
        ] );
      ( "pipeline",
        [ Alcotest.test_case "original ok" `Quick test_pipeline_original_ok;
          Alcotest.test_case "model repair stage" `Quick test_pipeline_model_repair_stage;
          Alcotest.test_case "data repair stage" `Quick test_pipeline_data_repair_stage;
          Alcotest.test_case "unrepairable" `Quick test_pipeline_unrepairable;
        ] );
    ]
