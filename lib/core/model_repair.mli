(** Model Repair (Definition 1, §IV-A).

    Given a DTMC [M] that violates a PCTL property [φ], find the smallest
    perturbation [Z] of the controllable transition probabilities such that
    [M_Z ⊨ φ]:
    {v
      min  g(Z) = Σ v_k²           (Eq. 1/4)
      s.t. M_Z ⊨ φ                 (Eq. 2 — discharged symbolically: the
                                     parametric model checker turns it into
                                     f(v) ~ b, Eq. 5)
           0 < P(i,j) + Z(i,j) < 1  on perturbed edges (Eq. 3/6)
    v}
    Perturbations may not create or delete edges (the paper's structure
    preservation); rows must stay stochastic, which is enforced
    symbolically at specification time. *)

type spec = {
  variables : (string * float * float) list;
      (** perturbation variables with box bounds [(name, lo, hi)] *)
  deltas : (int * int * Ratfun.t) list;
      (** [Z(i,j)]: the rational function added to edge [(i,j)]; typically
          [±v] or [c·v]. Every edge must already exist in the chain, and
          each row's deltas must sum to the zero function. *)
}

type repaired = {
  dtmc : Dtmc.t;  (** the repaired model [M'] *)
  assignment : (string * float) list;  (** the optimal perturbation vector *)
  cost : float;  (** cost of the optimal perturbation *)
  achieved_value : float;  (** the repaired probability/reward at the optimum *)
  symbolic_constraint : Ratfun.t;  (** [f(v)] itself, for inspection *)
  verified : bool;  (** numeric re-check of [M' ⊨ φ] *)
  epsilon_bisimilarity : float;
      (** Proposition 1: [M] and [M'] are ε-bisimilar with this ε — the
          largest entry of the realised perturbation matrix [Z]
          (computed as {!Bisimulation.epsilon_bound} between the original
          and repaired chains). *)
  solver_rung : string;
      (** which solver rung produced the solution: the method name for a
          plain [repair], the {!Nlp.solve_with_fallback} rung label
          ("augmented-lagrangian", "penalty", "penalty-wide") under
          [~fallback:true], or ["region-bnb"] under the region backend. *)
  certificate : Region_repair.certificate option;
      (** the global-optimality certificate, present exactly when the
          region backend produced the repair ([None] for NLP solutions,
          which certify nothing beyond local feasibility). *)
}

type result =
  | Already_satisfied of float option
      (** the original model satisfies [φ]; payload = its value *)
  | Repaired of repaired
  | Infeasible of { min_violation : float }
      (** no feasible perturbation found; payload = smallest constraint
          violation seen (the paper's "Model Repair gives infeasible
          solution" case) *)

val repair :
  ?backend:Repair_backend.t ->
  ?solver:Nlp.method_ ->
  ?starts:int ->
  ?fallback:bool ->
  Dtmc.t ->
  Pctl.state_formula ->
  spec ->
  result
(** [repair m φ spec] checks [m] with {!Repair_backend.verify_original},
    then builds {!parametric_model} and hands it, with the spec's
    perturbed edges, to {!Repair_backend.solve}, which minimises the
    squared L2 norm of the perturbation vector (the Frobenius-norm cost
    of Eq. 1).

    [backend] selects the solving substrate (default [Nlp_solver]).
    Under [Region] the result carries a global-optimality certificate to
    a 5% gap.  Under [Smc_prefilter] a seeded SPRT pre-check may skip
    the exact initial verification, and solving proceeds on the NLP
    path.  [solver] (default [Penalty]), [starts] (default 12) and
    [fallback] are NLP-path knobs: with [fallback] the NLP is solved by
    {!Nlp.solve_with_fallback}, escalating augmented Lagrangian →
    penalty → a wider multistart before conceding infeasibility, and
    the successful rung is recorded in [solver_rung].
    @raise Invalid_argument on malformed specs (unknown edges, unbalanced
    rows, duplicate variables, no variables).
    @raise Pquery.Unsupported on properties outside the parametric
    fragment. *)

val parametric_model : Dtmc.t -> spec -> Pdtmc.t
(** The parametric chain [M_Z] — exposed for inspection and benches. *)
