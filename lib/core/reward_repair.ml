(* ------------------------------------------------------------------ *)
(* Projection route (Prop. 4)                                          *)
(* ------------------------------------------------------------------ *)

let maxent_log_weight m ~theta tr =
  let r = Irl.reward_vector m theta in
  let reward_sum =
    List.fold_left (fun acc s -> acc +. r.(s)) 0.0 (Trace.states tr)
  in
  reward_sum +. Trace.log_probability m tr

let projection_weights m ~theta ~rules trajectories =
  if trajectories = [] then
    invalid_arg "Reward_repair.projection_weights: no trajectories";
  List.iter
    (fun (_, lambda) ->
       if lambda < 0.0 then
         invalid_arg "Reward_repair.projection_weights: negative lambda")
    rules;
  let labels = Mdp.has_label m in
  let log_weights =
    List.map
      (fun tr ->
         let base = maxent_log_weight m ~theta tr in
         let penalty =
           List.fold_left
             (fun acc (rule, lambda) ->
                acc +. (lambda *. (1.0 -. Trace_logic.indicator ~labels tr rule)))
             0.0 rules
         in
         (tr, base -. penalty))
      trajectories
  in
  (* normalise via log-sum-exp *)
  let maxw =
    List.fold_left (fun acc (_, w) -> Float.max acc w) Float.neg_infinity
      log_weights
  in
  let exps = List.map (fun (tr, w) -> (tr, exp (w -. maxw))) log_weights in
  let z = List.fold_left (fun acc (_, w) -> acc +. w) 0.0 exps in
  List.map (fun (tr, w) -> (tr, w /. z)) exps

let sample_trajectories rng m ~theta ~horizon ~count =
  let policy = Irl.soft_policy m ~theta ~horizon in
  List.init count (fun _ ->
      let rec go s steps acc =
        if steps >= horizon then (List.rev acc, s)
        else begin
          let choices = Array.of_list policy.(s) in
          let i = Prng.categorical rng (Array.map snd choices) in
          let aname = fst choices.(i) in
          match Mdp.find_action m s aname with
          | None -> (List.rev acc, s)
          | Some a ->
            let dist = Array.of_list a.Mdp.dist in
            let j = Prng.categorical rng (Array.map snd dist) in
            go (fst dist.(j)) (steps + 1) ((s, aname) :: acc)
        end
      in
      let steps, final = go (Mdp.init_state m) 0 [] in
      Trace.make steps final)

let repair_by_projection ?options m ~theta ~rules trajectories =
  let weighted = projection_weights m ~theta ~rules trajectories in
  Irl.learn_weighted ?options ~theta0:theta m weighted

(* ------------------------------------------------------------------ *)
(* Direct Q-constraint route (§V-B)                                    *)
(* ------------------------------------------------------------------ *)

type q_constraint = {
  state : int;
  better : string;
  worse : string;
  margin : float;
}

type repaired = {
  theta : float array;
  delta : float array;
  cost : float;
  policy : Mdp.policy;
  q_gaps : (q_constraint * float) list;
  verified : bool;
}

type result =
  | Already_satisfied
  | Repaired of repaired
  | Infeasible of { min_violation : float }

let validate_constraints m constraints =
  List.iter
    (fun c ->
       if c.state < 0 || c.state >= Mdp.num_states m then
         invalid_arg (Printf.sprintf "Reward_repair: bad state %d" c.state);
       if Mdp.find_action m c.state c.better = None then
         invalid_arg
           (Printf.sprintf "Reward_repair: state %d has no action %S" c.state
              c.better);
       if Mdp.find_action m c.state c.worse = None then
         invalid_arg
           (Printf.sprintf "Reward_repair: state %d has no action %S" c.state
              c.worse))
    constraints

(* The verification path: one value iteration per θ; the optimal policy
   and every constraint's gap are read off the same Q-table. *)
let q_table ~gamma m theta = Value.q_values ~gamma (Irl.apply_reward m theta)

let gap_of q c =
  List.assoc c.better q.(c.state) -. List.assoc c.worse q.(c.state)

(* ------------------------------------------------------------------ *)
(* Exact Q-gap evaluation for the NLP search                            *)
(* ------------------------------------------------------------------ *)

(* With the reward r = Φθ, a fixed deterministic policy π has values
   linear in θ: V_π(θ) = (I − γP_π)⁻¹(Φθ + r_π) = A_π θ + b_π, where r_π
   holds the chosen actions' rewards.  Q* at a point comes from policy
   iteration over these forms: evaluate the current policy's form, switch
   every state that has a strictly better action, repeat.  A form costs
   one LU factorisation with k+1 right-hand sides and is kept in a table
   keyed by the policy, so a search that wanders across a handful of
   policies solves a handful of systems and otherwise does only
   matrix-vector work.  With γ < 1, I − γP_π is strictly diagonally
   dominant, hence nonsingular. *)

type flat_action = { reward : float; targets : int array; probs : float array }

type gap_evaluator = {
  gamma : float;
  features : float array array;  (** Φ, n × k *)
  acts : flat_action array array;  (** per state, in [Mdp.actions_of] order *)
  names : string array array;
  forms : (int array, float array array * float array) Hashtbl.t;
      (** π ↦ (the k columns of A_π, b_π); keys are never mutated *)
  mutable policy : int array;  (** the last optimal policy: the warm start *)
}

let check_discount gamma =
  if not (gamma > 0.0 && gamma < 1.0) then
    invalid_arg (Printf.sprintf "Reward_repair: gamma %g outside (0, 1)" gamma)

let gap_evaluator ~gamma m =
  check_discount gamma;
  let n = Mdp.num_states m in
  let actions = Array.init n (fun s -> Array.of_list (Mdp.actions_of m s)) in
  let flat (a : Mdp.action) =
    {
      reward = a.Mdp.reward;
      targets = Array.of_list (List.map fst a.Mdp.dist);
      probs = Array.of_list (List.map snd a.Mdp.dist);
    }
  in
  {
    gamma;
    features = Array.init n (Mdp.features_of m);
    acts = Array.map (Array.map flat) actions;
    names = Array.map (Array.map (fun (a : Mdp.action) -> a.Mdp.name)) actions;
    forms = Hashtbl.create 16;
    policy = Array.make n 0;
  }

(* A_π and b_π: solve (I − γP_π) X = [Φ | r_π] in one factorisation. *)
let solve_form ev pi =
  let n = Array.length ev.acts and k = Array.length ev.features.(0) in
  let lhs = Linalg.Mat.identity n in
  Array.iteri
    (fun s a ->
       let { targets; probs; _ } = ev.acts.(s).(a) in
       Array.iteri
         (fun i t ->
            Linalg.Mat.set lhs s t
              (Linalg.Mat.get lhs s t -. (ev.gamma *. probs.(i))))
         targets)
    pi;
  let rhs =
    List.init k (fun j -> Array.init n (fun s -> ev.features.(s).(j)))
    @ [ Array.init n (fun s -> ev.acts.(s).(pi.(s)).reward) ]
  in
  let cols = Array.of_list (Linalg.lu_solve_many lhs rhs) in
  (Array.sub cols 0 k, cols.(k))

let form ev pi =
  match Hashtbl.find_opt ev.forms pi with
  | Some f -> f
  | None ->
    let f = solve_form ev pi in
    Hashtbl.add ev.forms pi f;
    f

let q_at ev r v s a =
  let { reward; targets; probs } = ev.acts.(s).(a) in
  let future = ref 0.0 in
  Array.iteri (fun i t -> future := !future +. (probs.(i) *. v.(t))) targets;
  r.(s) +. reward +. (ev.gamma *. !future)

(* Policy iteration from the warm start; returns the reward vector and
   V* at θ.  A state switches only on a strict (1e-12 relative)
   improvement, so every switch raises V_π and the loop terminates. *)
let optimal_values ev theta =
  (* Φθ as [Irl.reward_vector] computes it, without its per-call copies
     of every feature vector *)
  let r =
    Array.map
      (fun f ->
         let acc = ref 0.0 in
         Array.iteri (fun j fj -> acc := !acc +. (theta.(j) *. fj)) f;
         !acc)
      ev.features
  in
  let rec settle pi =
    let a_cols, b = form ev pi in
    let v =
      Array.mapi
        (fun s bs ->
           let acc = ref bs in
           Array.iteri
             (fun j col -> acc := !acc +. (theta.(j) *. col.(s)))
             a_cols;
           !acc)
        b
    in
    let next =
      Array.mapi
        (fun s cur ->
           let best = ref cur and best_q = ref (q_at ev r v s cur) in
           for a = 0 to Array.length ev.acts.(s) - 1 do
             let q = q_at ev r v s a in
             if q > !best_q +. (1e-12 *. (1.0 +. Float.abs !best_q)) then begin
               best := a;
               best_q := q
             end
           done;
           !best)
        pi
    in
    if next = pi then begin
      ev.policy <- pi;
      (r, v)
    end
    else settle next
  in
  settle ev.policy

let action_index ev s name =
  match Array.find_index (String.equal name) ev.names.(s) with
  | Some i -> i
  | None ->
    invalid_arg (Printf.sprintf "Reward_repair: state %d has no action %S" s name)

(* A constraint compiled to action indices: the NLP's hot closure. *)
let exact_gap_fn ev c =
  let better = action_index ev c.state c.better
  and worse = action_index ev c.state c.worse in
  fun theta ->
    let r, v = optimal_values ev theta in
    q_at ev r v c.state better -. q_at ev r v c.state worse

let exact_gap ev theta c = exact_gap_fn ev c theta

let repair_q ?(gamma = 0.9) ?(starts = 8) m ~theta ~constraints =
  check_discount gamma;
  if Mdp.feature_dim m = 0 then
    invalid_arg "Reward_repair.repair_q: MDP has no features";
  if constraints = [] then invalid_arg "Reward_repair.repair_q: no constraints";
  validate_constraints m constraints;
  let k = Array.length theta in
  if k <> Mdp.feature_dim m then
    invalid_arg "Reward_repair.repair_q: theta dimension mismatch";
  let satisfied th =
    let q = q_table ~gamma m th in
    List.for_all (fun c -> gap_of q c >= c.margin) constraints
  in
  if satisfied theta then Already_satisfied
  else begin
    (* variables = Δθ; constraint violation = margin − gap(θ+Δθ) *)
    let theta_plus dx = Array.mapi (fun i v -> v +. dx.(i)) theta in
    (* a small interior margin keeps the optimum strictly inside the
       feasible region so the final Q-table still verifies the raw margin *)
    let interior = 1e-6 in
    (* the exact evaluator steers the search; value iteration verifies *)
    let ev = gap_evaluator ~gamma m in
    let inequalities =
      List.mapi
        (fun i c ->
           let gap = exact_gap_fn ev c in
           ( Printf.sprintf "q_constraint_%d" i,
             fun dx -> c.margin +. interior -. gap (theta_plus dx) ))
        constraints
    in
    let problem =
      Nlp.problem ~dim:k
        ~objective:(fun dx -> Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 dx)
        ~inequalities
        ~lower:(Array.make k (-2.0))
        ~upper:(Array.make k 2.0)
        ()
    in
    match Instr.time Instr.Solve (fun () -> Nlp.solve ~starts problem) with
    | Nlp.Infeasible s -> Infeasible { min_violation = s.Nlp.max_violation }
    | Nlp.Feasible s ->
      let delta = s.Nlp.x in
      let theta' = theta_plus delta in
      let q = q_table ~gamma m theta' in
      let policy = Value.greedy_policy m q in
      let q_gaps = List.map (fun c -> (c, gap_of q c)) constraints in
      Repaired
        {
          theta = theta';
          delta;
          cost = s.Nlp.objective_value;
          policy;
          q_gaps;
          verified = List.for_all (fun (c, g) -> g >= c.margin -. 1e-9) q_gaps;
        }
  end

let policy_satisfies m policy ~rules ~horizon =
  let labels = Mdp.has_label m in
  (* exhaustive walk over all probabilistic branches up to the horizon *)
  let rec walk s steps acc_rev all_ok =
    if not all_ok then false
    else if steps >= horizon then
      let tr = Trace.make (List.rev acc_rev) s in
      List.for_all (fun rule -> Trace_logic.eval ~labels tr rule) rules
    else begin
      match Mdp.find_action m s policy.(s) with
      | None -> false
      | Some a ->
        (* a self-loop with probability 1 terminates the rollout *)
        (match a.Mdp.dist with
         | [ (d, p) ] when d = s && p > 1.0 -. 1e-12 ->
           let tr = Trace.make (List.rev acc_rev) s in
           List.for_all (fun rule -> Trace_logic.eval ~labels tr rule) rules
         | dist ->
           List.for_all
             (fun (d, p) ->
                p <= 0.0
                || walk d (steps + 1) ((s, a.Mdp.name) :: acc_rev) true)
             dist)
    end
  in
  walk (Mdp.init_state m) 0 [] true
