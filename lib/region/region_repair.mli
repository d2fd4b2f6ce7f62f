(** Certified repair: global minimisation of the squared-L2 perturbation
    cost over the accept-region of a parameter box, to a set optimality
    gap.

    Where the NLP backend returns a local optimum with no guarantee, this
    loop runs best-first branch-and-bound on the cost's box lower bound:
    an accepted box yields a feasible incumbent at its cost-minimising
    point, a rejected box is discarded, and an unknown box is bisected —
    until every remaining box provably contains no point better than the
    incumbent by more than the gap.  The result carries a machine-checkable
    certificate: the incumbent cost, a sound lower bound on the true
    feasible optimum, the relative gap between them, and the volume
    fraction decided (accepted + rejected + pruned within the gap). *)

type settings = {
  gap : float;  (** relative optimality gap to certify (default 0.05) *)
  max_regions : int;
  min_width : float;
}

val default_settings : settings
(** gap 0.05, 20_000 regions, 1e-6 minimum width. *)

type certificate = {
  best_cost : float;
  cost_lower_bound : float;
      (** sound lower bound on the cost of {e any} feasible point *)
  optimality_gap : float;
      (** [(best_cost - cost_lower_bound) / best_cost], 0 when
          [best_cost = 0] *)
  decided_fraction : float;
      (** volume fraction carrying a proof: accepted, rejected, or pruned
          because its cost lower bound already exceeds the incumbent's
          gap-adjusted cost *)
  feasible_fraction : float;  (** volume proven accept (informational) *)
  regions_explored : int;
}

type repaired = {
  point : float array;  (** the certified repair, in box variable order *)
  cost : float;
  certificate : certificate;
}

val minimize :
  ?settings:settings ->
  constraints:Region_verify.constr list ->
  Box.t ->
  repaired
(** [minimize ~constraints box] minimises the paper's squared-L2
    perturbation cost [Σ x²] over the accept set of [constraints] in
    [box].  The cost's box lower bound and box argmin are exact (a
    per-dimension clamp of 0 into the box), so the certified gap is
    tight.  The returned point satisfies every constraint with its
    interior margin, and no feasible point in [box] beats it by more
    than the certified gap.
    @raise Tml_error.Error with [Empty_feasible_box] when the accept set
    is proven empty (the whole box rejects) or no feasible point was found
    within the region budget — the typed permanent error for "Model Repair
    gives infeasible solution". *)

val pp_certificate : Format.formatter -> certificate -> unit
(** One line: cost, lower bound, gap %, decided-volume %, regions. *)
