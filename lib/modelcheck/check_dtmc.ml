module G = Graph_analysis

(* Solve the until system on the "maybe" states (neither prob0 nor prob1)
   with LU: x_s = Σ_t P(s,t) x_t + Σ_{t ∈ prob1} P(s,t). *)
let until_probabilities dtmc phi1 phi2 =
  let n = Dtmc.num_states dtmc in
  let s0 = G.prob0 ~dtmc ~phi1 ~phi2 in
  let s1 = G.prob1 ~dtmc ~phi1 ~phi2 in
  let maybe = Array.init n (fun s -> (not s0.(s)) && not s1.(s)) in
  let index = Array.make n (-1) in
  let count = ref 0 in
  Array.iteri
    (fun s m ->
       if m then begin
         index.(s) <- !count;
         incr count
       end)
    maybe;
  let k = !count in
  let result = Array.init n (fun s -> if s1.(s) then 1.0 else 0.0) in
  if k > 0 then begin
    let a = Linalg.Mat.make k k 0.0 in
    let b = Array.make k 0.0 in
    Array.iteri
      (fun s m ->
         if m then begin
           let i = index.(s) in
           Linalg.Mat.set a i i 1.0;
           List.iter
             (fun (t, p) ->
                if maybe.(t) then
                  Linalg.Mat.set a i index.(t)
                    (Linalg.Mat.get a i index.(t) -. p)
                else if s1.(t) then b.(i) <- b.(i) +. p)
             (Dtmc.succ dtmc s)
         end)
      maybe;
    let x = Linalg.lu_solve a b in
    Array.iteri (fun s m -> if m then result.(s) <- x.(index.(s))) maybe
  end;
  result

let bounded_until_probabilities dtmc phi1 phi2 h =
  let n = Dtmc.num_states dtmc in
  let x = Array.init n (fun s -> if phi2.(s) then 1.0 else 0.0) in
  let step x =
    Array.init n (fun s ->
        if phi2.(s) then 1.0
        else if not phi1.(s) then 0.0
        else
          List.fold_left
            (fun acc (t, p) -> acc +. (p *. x.(t)))
            0.0 (Dtmc.succ dtmc s))
  in
  let rec go k x = if k = 0 then x else go (k - 1) (step x) in
  go h x

let next_probabilities dtmc phi =
  let n = Dtmc.num_states dtmc in
  Array.init n (fun s ->
      List.fold_left
        (fun acc (t, p) -> if phi.(t) then acc +. p else acc)
        0.0 (Dtmc.succ dtmc s))

let all_true n = Array.make n true

let rec path_probabilities_sat dtmc psi =
  let n = Dtmc.num_states dtmc in
  match (psi : Pctl.path_formula) with
  | Next f -> next_probabilities dtmc (sat dtmc f)
  | Until (f1, f2) -> until_probabilities dtmc (sat dtmc f1) (sat dtmc f2)
  | Bounded_until (f1, f2, h) ->
    bounded_until_probabilities dtmc (sat dtmc f1) (sat dtmc f2) h
  | Eventually f -> until_probabilities dtmc (all_true n) (sat dtmc f)
  | Bounded_eventually (f, h) ->
    bounded_until_probabilities dtmc (all_true n) (sat dtmc f) h
  | Globally f ->
    (* Pr(G φ) = 1 - Pr(F ¬φ) *)
    let notf = Array.map not (sat dtmc f) in
    Array.map (fun p -> 1.0 -. p) (until_probabilities dtmc (all_true n) notf)
  | Bounded_globally (f, h) ->
    let notf = Array.map not (sat dtmc f) in
    Array.map
      (fun p -> 1.0 -. p)
      (bounded_until_probabilities dtmc (all_true n) notf h)

and reachability_reward_sat dtmc target =
  let n = Dtmc.num_states dtmc in
  let phi1 = all_true n in
  (* States reaching the target with probability 1 get finite reward. *)
  let s1 = G.prob1 ~dtmc ~phi1 ~phi2:target in
  let solve_states = Array.init n (fun s -> s1.(s) && not target.(s)) in
  let index = Array.make n (-1) in
  let count = ref 0 in
  Array.iteri
    (fun s m ->
       if m then begin
         index.(s) <- !count;
         incr count
       end)
    solve_states;
  let k = !count in
  let result =
    Array.init n (fun s ->
        if target.(s) then 0.0
        else if s1.(s) then 0.0 (* filled below *)
        else Float.infinity)
  in
  if k > 0 then begin
    let a = Linalg.Mat.make k k 0.0 in
    let b = Array.make k 0.0 in
    Array.iteri
      (fun s m ->
         if m then begin
           let i = index.(s) in
           Linalg.Mat.set a i i 1.0;
           b.(i) <- Dtmc.reward dtmc s;
           List.iter
             (fun (t, p) ->
                if solve_states.(t) then
                  Linalg.Mat.set a i index.(t)
                    (Linalg.Mat.get a i index.(t) -. p))
             (Dtmc.succ dtmc s)
         end)
      solve_states;
    let x = Linalg.lu_solve a b in
    Array.iteri (fun s m -> if m then result.(s) <- x.(index.(s))) solve_states
  end;
  result

and sat dtmc (f : Pctl.state_formula) : bool array =
  let n = Dtmc.num_states dtmc in
  match f with
  | True -> all_true n
  | False -> Array.make n false
  | Prop p ->
    let marked = Array.make n false in
    List.iter (fun s -> marked.(s) <- true) (Dtmc.states_with_label dtmc p);
    marked
  | Not g -> Array.map not (sat dtmc g)
  | And (g1, g2) ->
    let a = sat dtmc g1 and b = sat dtmc g2 in
    Array.init n (fun s -> a.(s) && b.(s))
  | Or (g1, g2) ->
    let a = sat dtmc g1 and b = sat dtmc g2 in
    Array.init n (fun s -> a.(s) || b.(s))
  | Implies (g1, g2) ->
    let a = sat dtmc g1 and b = sat dtmc g2 in
    Array.init n (fun s -> (not a.(s)) || b.(s))
  | Prob (op, bound, psi) ->
    let probs = path_probabilities_sat dtmc psi in
    Array.map (fun p -> Pctl.compare_with op p bound) probs
  | Reward (op, bound, g) ->
    let rewards = reachability_reward_sat dtmc (sat dtmc g) in
    Array.map (fun r -> Pctl.compare_with op r bound) rewards

let path_probabilities dtmc psi = path_probabilities_sat dtmc psi

let path_probability dtmc psi =
  (path_probabilities dtmc psi).(Dtmc.init_state dtmc)

let reachability_reward dtmc f = reachability_reward_sat dtmc (sat dtmc f)

let reachability_reward_from_init dtmc f =
  (reachability_reward dtmc f).(Dtmc.init_state dtmc)

let check dtmc f = (sat dtmc f).(Dtmc.init_state dtmc)

type verdict = { holds : bool; value : float option }

let check_verbose dtmc f =
  let holds = check dtmc f in
  let value =
    match (f : Pctl.state_formula) with
    | Prob (_, _, psi) -> Some (path_probability dtmc psi)
    | Reward (_, _, g) -> Some (reachability_reward_from_init dtmc g)
    | _ -> None
  in
  { holds; value }
