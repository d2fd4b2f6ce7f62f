(** Explicit-state PCTL model checking for DTMCs.

    Implements the classic algorithms (Hansson–Jonsson / Baier–Katoen
    ch. 10): graph precomputation of the certainly-0 / certainly-1 sets,
    then a linear system for unbounded until and reachability rewards, and
    fixed-point iteration for step-bounded operators. This is the numeric
    engine the paper delegates to PRISM. *)

val path_probabilities : Dtmc.t -> Pctl.path_formula -> float array
(** [Pr(s ⊨ ψ)] for every state [s]. *)

val path_probability : Dtmc.t -> Pctl.path_formula -> float
(** Probability from the initial state. *)

val reachability_reward : Dtmc.t -> Pctl.state_formula -> float array
(** Expected state-reward accumulated until first reaching a [φ]-state
    (the reward of the [φ]-state itself is not counted, matching PRISM's
    [R \[F φ\]]). States that do not reach [φ] almost surely get
    [infinity]. *)

val reachability_reward_from_init : Dtmc.t -> Pctl.state_formula -> float

val sat : Dtmc.t -> Pctl.state_formula -> bool array
(** The satisfaction set, one entry per state. *)

val check : Dtmc.t -> Pctl.state_formula -> bool
(** Satisfaction at the initial state. *)

type verdict = {
  holds : bool;
  value : float option;
      (** for a top-level [P]/[R] formula, the computed probability /
          expected reward at the initial state *)
}

val check_verbose : Dtmc.t -> Pctl.state_formula -> verdict
