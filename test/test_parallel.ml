(* Differential tests for the multicore symbolic kernel: the batched
   parallel elimination must be byte-identical to its one-at-a-time
   reference schedule (on the WSN grids n=2..4 and the lane-change
   chain), NLP solves must not change when a pool runner is installed, a
   batch of model repairs on a multi-worker runtime must reproduce
   [Job.run] report for report, an injected worker crash mid-batch must
   be retried — not wedge the batch — and nested subtask submission must
   complete on a 1-worker pool. *)

(* ------------------------------ harness ------------------------------- *)

(* A raw pool + runner, NOT a Runtime: Runtime.create would also install
   the elimination memo, and a memo hit would hide a parallel/sequential
   divergence by serving both sides the same cached value. *)
let with_pool ~workers f =
  let pool = Pool.create ~workers () in
  Parallel.set_runner (Some (Pool.run_subtasks pool));
  Fun.protect
    ~finally:(fun () ->
      Parallel.set_runner None;
      Pool.shutdown pool)
    (fun () -> f pool)

(* ------------------------------ fixtures ------------------------------ *)

let wsn_pm n =
  let params = { Wsn.default_params with Wsn.n } in
  Model_repair.parametric_model (Wsn.chain params) (Wsn.repair_spec params)

(* The paper's lane-change introduction example (as in test_region.ml):
   repair variable f moves freeze mass back to the lane change. *)
let car_pm () =
  let chain =
    Dtmc.make ~n:6 ~init:0
      ~transitions:
        [ (0, 1, 0.57); (0, 2, 0.38); (0, 5, 0.05);
          (1, 3, 0.95); (1, 2, 0.05);
          (2, 4, 1.0); (3, 3, 1.0); (4, 4, 1.0); (5, 5, 1.0);
        ]
      ~labels:
        [ ("changedLane", [ 3 ]); ("reducedSpeed", [ 4 ]); ("frozen", [ 5 ]) ]
      ()
  in
  let spec =
    {
      Model_repair.variables = [ ("f", 0.0, 0.05) ];
      deltas = [ (0, 5, Ratfun.neg (Ratfun.var "f")); (0, 1, Ratfun.var "f") ];
    }
  in
  Model_repair.parametric_model chain spec

let orders =
  [ ("min-degree", Elimination.Min_degree);
    ("ascending", Elimination.Ascending);
    ("descending", Elimination.Descending);
  ]

(* ----------------------- elimination differential --------------------- *)

(* Three paths through the same query:
   - [Sequential]               → every batch cut to its first pick
   - [Batched], no runner       → batched schedule, sequential fallback
   - [Batched], pool runner     → batched schedule across pool domains
   All three must render to the same string: byte-identical, not just
   numerically close. *)
let check_elim_identical name query =
  List.iter
    (fun (oname, order) ->
       let reference = query Elimination.Reference.Sequential order in
       let batched_seq = query Elimination.Reference.Batched order in
       let batched_par =
         with_pool ~workers:2 (fun _pool ->
             query Elimination.Reference.Batched order)
       in
       Alcotest.(check string)
         (Printf.sprintf "%s/%s batched=sequential" name oname)
         (Ratfun.to_string reference)
         (Ratfun.to_string batched_seq);
       Alcotest.(check string)
         (Printf.sprintf "%s/%s pooled=sequential" name oname)
         (Ratfun.to_string reference)
         (Ratfun.to_string batched_par))
    orders

let test_elim_wsn_reachability () =
  List.iter
    (fun n ->
       let pm = wsn_pm n in
       check_elim_identical
         (Printf.sprintf "wsn n=%d reach" n)
         (fun engine order ->
            Elimination.Reference.reachability_probability engine ~order pm
              ~target:[ 0 ]))
    [ 2; 3 ]

(* n=4 is ~300 ms per elimination, so one order covers it without
   dominating the suite's runtime *)
let test_elim_wsn_n4 () =
  let pm = wsn_pm 4 in
  let query engine =
    Elimination.Reference.reachability_probability engine
      ~order:Elimination.Min_degree pm ~target:[ 0 ]
  in
  let reference = query Elimination.Reference.Sequential in
  let pooled =
    with_pool ~workers:2 (fun _ -> query Elimination.Reference.Batched)
  in
  Alcotest.(check string) "wsn n=4 pooled=sequential"
    (Ratfun.to_string reference) (Ratfun.to_string pooled)

let test_elim_wsn_reward () =
  List.iter
    (fun n ->
       let pm = wsn_pm n in
       check_elim_identical
         (Printf.sprintf "wsn n=%d reward" n)
         (fun engine order ->
            Elimination.Reference.expected_reward engine ~order pm
              ~target:[ 0 ]))
    [ 2; 3 ]

let test_elim_lane_change () =
  let pm = car_pm () in
  check_elim_identical "lane-change reach" (fun engine order ->
      Elimination.Reference.reachability_probability engine ~order pm
        ~target:[ 3; 4 ])

(* --------------------------- NLP differential ------------------------- *)

let feasible_problem () =
  Nlp.problem ~dim:2
    ~objective:(fun x ->
      ((x.(0) -. 0.3) *. (x.(0) -. 0.3)) +. ((x.(1) +. 0.2) *. (x.(1) +. 0.2)))
    ~inequalities:
      [ ("disc", fun x -> (x.(0) *. x.(0)) +. (x.(1) *. x.(1)) -. 1.0) ]
    ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] ()

(* g > 0 everywhere in the box: every rung of the ladder stays
   infeasible, exercising the best-infeasible tie-breaking fold *)
let infeasible_problem () =
  Nlp.problem ~dim:2
    ~objective:(fun x -> x.(0) +. x.(1))
    ~inequalities:[ ("impossible", fun x -> x.(0) +. 10.0) ]
    ~lower:[| -1.0; -1.0 |] ~upper:[| 1.0; 1.0 |] ()

(* outcome records hold float arrays; polymorphic compare is exactly the
   byte-identity the contract promises (no NaNs reach the fold) *)
let check_outcome_identical name seq par =
  Alcotest.(check bool) name true (compare seq par = 0)

let test_multistart_identical () =
  let p = feasible_problem () in
  let solve () = Nlp.solve ~starts:8 ~seed:3 p in
  let reference = solve () in
  let pooled = with_pool ~workers:2 (fun _ -> solve ()) in
  check_outcome_identical "multistart pooled=sequential" reference pooled

let test_fallback_identical () =
  List.iter
    (fun (name, p) ->
       let solve () = Nlp.solve_with_fallback ~starts:4 ~seed:7 p in
       let reference = solve () in
       let pooled = with_pool ~workers:2 (fun _ -> solve ()) in
       check_outcome_identical
         (Printf.sprintf "fallback %s pooled=sequential" name)
         reference pooled)
    [ ("feasible", feasible_problem ()); ("infeasible", infeasible_problem ()) ]

(* ------------------------- batch determinism -------------------------- *)

(* The bench's 8-job WSN model-repair batch (E[attempts] bounds 35..42,
   all violated, so every job runs elimination + NLP) on fresh runtimes
   with real worker domains.  The report cache is off, so every repeat
   recomputes every job; the elimination cache stays on, as in serving.
   Every rendered report must equal the [Job.run] reference. *)
let stress_jobs () =
  let params = Wsn.default_params in
  let chain = Wsn.chain params in
  let spec = Wsn.repair_spec params in
  List.map
    (fun b ->
       Job.Model_repair
         { model = chain; phi = Wsn.property b; spec; starts = 4;
           backend = Repair_backend.Nlp_solver })
    [ 35; 36; 37; 38; 39; 40; 41; 42 ]

(* The car reward-repair jobs of `tml batch --suite car`: the paper's
   Q(S1, left) > Q(S1, fwd) repair at discounts 0.88..0.915. *)
let car_jobs () =
  let mdp = Car.mdp () in
  List.init 8 (fun j ->
      Job.Reward_repair
        { mdp; theta = Car.paper_learned_theta;
          constraints = [ Car.unsafe_q_constraint ];
          gamma = 0.88 +. (0.005 *. float_of_int j); starts = 2 })

let check_batch_determinism jobs =
  let render o = Format.asprintf "%a" Job.pp_outcome o in
  let reference = List.map (fun j -> render (Job.run j)) jobs in
  let mismatches = ref [] in
  List.iter
    (fun workers ->
       for rep = 1 to 10 do
         Runtime.with_runtime ~workers ~report_cache_capacity:0 (fun rt ->
             List.iteri
               (fun i (r, got) ->
                  let got =
                    match got with
                    | Future.Value o -> render o
                    | _ -> "<not a value>"
                  in
                  if got <> r then
                    mismatches :=
                      Printf.sprintf "workers=%d rep=%d job=%d" workers rep i
                      :: !mismatches)
               (List.combine reference (Runtime.run_batch rt jobs)))
       done)
    [ 2; 4 ];
  Alcotest.(check (list string)) "reports identical to Job.run" []
    (List.rev !mismatches)

let test_batch_determinism_stress () = check_batch_determinism (stress_jobs ())
let test_car_batch_determinism () = check_batch_determinism (car_jobs ())

(* ------------------------------- chaos -------------------------------- *)

(* A [Fault.Subtask] raise kills the first pool worker that probes the
   batch.  The batch must still complete (caller-drain), every task must
   run exactly once, and the pool must respawn the dead worker. *)
let test_subtask_crash_retried () =
  with_pool ~workers:2 (fun pool ->
      Fault.install
        (Some (Fault.plan [ Fault.spec Fault.Subtask Fault.Raise ]));
      Fun.protect ~finally:(fun () -> Fault.install None) (fun () ->
          let n = 16 in
          let hits = Array.make n 0 in
          let deadline = Unix.gettimeofday () +. 10.0 in
          let tasks =
            Array.init n (fun i () ->
                (* the first claimed task spins until the injected crash
                   has fired, so a pool worker reliably reaches the probe
                   before the batch is drained out from under it *)
                if i = 0 then
                  while
                    Fault.fired_at Fault.Subtask = 0
                    && Unix.gettimeofday () < deadline
                  do
                    Domain.cpu_relax ()
                  done;
                hits.(i) <- hits.(i) + 1)
          in
          Pool.run_subtasks pool tasks;
          Alcotest.(check int) "crash fired once" 1
            (Fault.fired_at Fault.Subtask);
          Array.iteri
            (fun i h ->
               Alcotest.(check int) (Printf.sprintf "task %d ran once" i) 1 h)
            hits;
          let rec await_respawn tries =
            if Pool.respawns pool >= 1 || tries = 0 then ()
            else begin
              Unix.sleepf 0.01;
              await_respawn (tries - 1)
            end
          in
          await_respawn 500;
          Alcotest.(check bool) "worker respawned" true
            (Pool.respawns pool >= 1));
      (* capacity restored: the pool still drains batches afterwards *)
      let c = Atomic.make 0 in
      Pool.run_subtasks pool (Array.init 8 (fun _ () -> Atomic.incr c));
      Alcotest.(check int) "post-crash batch completes" 8 (Atomic.get c))

(* ------------------------------- pool --------------------------------- *)

(* A job running ON the single worker fans out nested batches; the
   caller-drain design means the worker drains its own submissions, so
   this must complete rather than deadlock. *)
let test_nested_submit_one_worker () =
  let fan_out n f =
    let out = Array.make n 0 in
    Parallel.run (Array.init n (fun i () -> out.(i) <- f i));
    out
  in
  with_pool ~workers:1 (fun pool ->
      let fut =
        Pool.submit pool (fun () ->
            fan_out 4 (fun i ->
                Array.fold_left ( + ) 0
                  (fan_out 3 (fun j -> (10 * (i + 1)) + j))))
      in
      match Future.await ~timeout_s:30.0 fut with
      | Future.Value v ->
        Alcotest.(check (array int)) "nested fan-out result"
          [| 33; 63; 93; 123 |] v
      | _ -> Alcotest.fail "nested submit did not complete on 1 worker")

let test_lowest_index_exception () =
  let module E = struct
    exception Boom of int
  end in
  with_pool ~workers:2 (fun _ ->
      match
        Parallel.run
          (Array.init 8 (fun i () -> if i = 2 || i = 5 then raise (E.Boom i)))
      with
      | () -> Alcotest.fail "batch with failing tasks returned"
      | exception E.Boom i ->
        Alcotest.(check int) "lowest-indexed exception wins" 2 i)

let () =
  Alcotest.run "parallel"
    [ ( "elimination differential",
        [ Alcotest.test_case "wsn n=2..3 reachability" `Quick
            test_elim_wsn_reachability;
          Alcotest.test_case "wsn n=4 reachability" `Quick test_elim_wsn_n4;
          Alcotest.test_case "wsn n=2..3 expected reward" `Quick
            test_elim_wsn_reward;
          Alcotest.test_case "lane-change reachability" `Quick
            test_elim_lane_change;
        ] );
      ( "nlp differential",
        [ Alcotest.test_case "multistart" `Quick test_multistart_identical;
          Alcotest.test_case "fallback ladder" `Quick test_fallback_identical;
        ] );
      ( "batch determinism",
        [ Alcotest.test_case "wsn batch, 2 and 4 workers" `Quick
            test_batch_determinism_stress;
          Alcotest.test_case "car reward-repair batch, 2 and 4 workers" `Quick
            test_car_batch_determinism;
        ] );
      ( "chaos",
        [ Alcotest.test_case "subtask crash retried" `Quick
            test_subtask_crash_retried;
        ] );
      ( "pool",
        [ Alcotest.test_case "nested submit, 1 worker" `Quick
            test_nested_submit_one_worker;
          Alcotest.test_case "lowest-index exception" `Quick
            test_lowest_index_exception;
        ] );
    ]
