(** Reward Repair (Definition 2, §IV-C and the §V-B case study).

    Two complementary mechanisms, both implemented:

    {b 1. Posterior-regularisation projection} (Prop. 4, Eqs. 17–18): the
    MaxEnt-IRL path distribution [P(U|θ)] is projected onto the subspace
    satisfying trajectory rules [φ_l] by the closed form
    [Q(U) ∝ P(U)·exp(−Σ_l λ_l (1 − φ_l(U)))]; the repaired reward is then
    re-estimated by weighted IRL against [Q]. As [λ → ∞], rule-violating
    trajectories get probability 0 while satisfying ones keep their
    relative mass — exactly the intuition the paper states after Prop. 4.

    {b 2. Direct Q-constraint repair} (§V-B): solve
    [min ‖Δθ‖ s.t. Q_{θ+Δθ}(s, a_good) > Q_{θ+Δθ}(s, a_bad)] so the
    repaired optimal policy avoids unsafe actions. *)

(** {1 Projection route (Prop. 4)} *)

val projection_weights :
  Mdp.t ->
  theta:float array ->
  rules:(Trace_logic.t * float) list ->
  Trace.t list ->
  (Trace.t * float) list
(** Normalised [Q(U)] over the given trajectory set: MaxEnt weight
    [exp(Σ θᵀf) · Π P(s'|s,a)] times the rule penalty
    [exp(−Σ λ_l (1−φ_l(U)))].
    @raise Invalid_argument on an empty trajectory set or negative λ. *)

val sample_trajectories :
  Prng.t -> Mdp.t -> theta:float array -> horizon:int -> count:int -> Trace.t list
(** Trajectories drawn from the soft (MaxEnt) policy under [θ] — the
    Gibbs-style sampling the paper suggests for grounding first-order
    rules. *)

val repair_by_projection :
  ?options:Irl.options ->
  Mdp.t ->
  theta:float array ->
  rules:(Trace_logic.t * float) list ->
  Trace.t list ->
  float array
(** The repaired weight vector θ′ = IRL fit to the projected
    distribution. *)

(** {1 Direct Q-constraint route (§V-B)} *)

type q_constraint = {
  state : int;
  better : string;  (** action whose Q-value must dominate *)
  worse : string;
  margin : float;  (** required gap, > 0 for a strict preference *)
}

type repaired = {
  theta : float array;
  delta : float array;  (** θ′ − θ *)
  cost : float;  (** ‖Δθ‖² *)
  policy : Mdp.policy;  (** optimal policy under θ′ *)
  q_gaps : (q_constraint * float) list;  (** achieved Q(better) − Q(worse) *)
  verified : bool;  (** every constraint satisfied by the final Q-table *)
}

type result =
  | Already_satisfied  (** the optimal policy under θ meets every constraint *)
  | Repaired of repaired
  | Infeasible of { min_violation : float }

val repair_q :
  ?gamma:float ->
  ?starts:int ->
  ?seed:int ->
  ?force:bool ->
  Mdp.t ->
  theta:float array ->
  constraints:q_constraint list ->
  result
(** The NLP search evaluates each constraint's gap with an exact
    Q* evaluator ({!gap_evaluator}) built for this call.  The
    [Already_satisfied] pre-check and the final [policy], [q_gaps] and
    [verified] come from value iteration, one Q-table per θ.
    @raise Invalid_argument on unknown states/actions, an MDP without
    features, or a [gamma] outside (0, 1). *)

(** {2 Exact Q-gap evaluation}

    For a fixed policy π the values are linear in θ,
    [V_π(θ) = (I − γP_π)⁻¹(Φθ + r_π)].  The evaluator finds Q* at θ by
    policy iteration over these forms, solving each policy's form once
    and keeping it in a table owned by the evaluator. *)

type gap_evaluator
(** Mutable: owned by one solve, never shared across domains. *)

val gap_evaluator : gamma:float -> Mdp.t -> gap_evaluator
(** @raise Invalid_argument on a [gamma] outside (0, 1). *)

val exact_gap : gap_evaluator -> float array -> q_constraint -> float
(** [Q*(state, better) − Q*(state, worse)] under the reward θᵀf.
    @raise Invalid_argument on an action the state does not have. *)

val policy_satisfies :
  Mdp.t -> Mdp.policy -> rules:Trace_logic.t list -> horizon:int -> bool
(** Rolls the (deterministic) policy out from the initial state, following
    every probabilistic branch (exhaustive tree walk up to [horizon]), and
    checks each complete trajectory against all rules. *)
