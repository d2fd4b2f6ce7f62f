(** Which solving substrate a repair runs on.

    The paper's pipeline solves one NLP; this enum selects between that,
    the region-lifting backend ({!Region_repair} — globally certified,
    slower per query), and the NLP preceded by a cheap statistical
    pre-check ({!Smc} SPRT) that can dismiss the expensive exact
    verification step when the original model obviously satisfies or
    obviously violates the property.

    The slug strings are the wire/CLI vocabulary ([--backend nlp],
    [--backend region], [--backend smc-prefilter]) and must stay stable:
    they travel in [Wire] requests and are recorded in bench rows. *)

type t =
  | Nlp_solver  (** the paper's penalty/augmented-Lagrangian NLP *)
  | Region  (** certified branch-and-bound over accept-regions *)
  | Smc_prefilter
      (** SPRT pre-check on the original model, then the NLP path *)

val to_string : t -> string
(** ["nlp"], ["region"], ["smc-prefilter"]. *)

val of_string : string -> (t, string) result
(** Inverse of {!to_string}; [Error] names the unknown slug and the
    accepted values. *)

val all : (string * t) list
(** Slug/value pairs, for CLI enums. *)

(** {1 The repair loop}

    Model Repair (§IV-A) and Data Repair (§IV-B) share one loop over a
    parametric DTMC and differ only in how that DTMC is built: verify the
    original model, eliminate φ to [f(v) ~ b], minimise the squared-L2
    cost [Σ v²] over a box subject to [f(v) ~ b] (and [0 < P(s,d) < 1] on
    perturbed edges), then instantiate the optimum and re-verify it.
    This module runs that loop; {!Model_repair} and {!Data_repair} build
    the parametric model and interpret the result. *)

val verify_original :
  t -> Dtmc.t -> Pctl.state_formula -> Check_dtmc.verdict option
(** Step 1: the exact check of the unrepaired model.  Under
    [Smc_prefilter] a seeded SPRT ({!Smc.sprt} at its default error
    levels) runs first and costs no elimination: a statistical reject
    returns [None] and skips the exact check (a needless repair comes
    back with cost 0 anyway), while an accept still gets the exact
    confirmation (the SPRT has nonzero error probability), as does an
    undecided or unsupported pre-check.  The outcome is counted in
    [tml_smc_prefilter_total] and emitted as a [region:smc-prefilter]
    trace event. *)

type solved = {
  point : float array;  (** the optimum, in [variables] order *)
  cost : float;  (** [Σ v²] at [point] *)
  rung : string;
      (** what produced [point]: the {!Nlp.method_} name, the
          {!Nlp.solve_with_fallback} rung label under [~fallback:true],
          or ["region-bnb"] *)
  certificate : Region_repair.certificate option;
      (** present exactly under [Region] *)
  query : Pquery.query;  (** the eliminated property [f(v) ~ b] *)
  dtmc : Dtmc.t;  (** the parametric model instantiated at [point] *)
  achieved_value : float;  (** [f(point)] *)
  verified : bool;  (** numeric re-check of [dtmc ⊨ φ] *)
}

val solve :
  t ->
  ?solver:Nlp.method_ ->
  ?fallback:bool ->
  starts:int ->
  variables:(string * float * float) list ->
  edges:(int * int) list ->
  Pdtmc.t ->
  Pctl.state_formula ->
  (solved, float) result
(** Steps 2–4 on the parametric model: eliminate φ, solve the NLP over
    the [variables] box [(name, lo, hi)] (a zero-width box pins a
    variable), and re-verify the optimum.  Each edge in [edges] must
    exist in the model and gains the constraint [0 < P(s,d) < 1].

    [Nlp_solver] and [Smc_prefilter] solve by {!Nlp.solve} with [solver]
    (default [Penalty]) and [starts] multistart points, or by
    {!Nlp.solve_with_fallback} with [fallback]; [Region] solves by
    {!Region_repair.minimize} to its default 5% optimality gap.
    [Error v] means no feasible point was found: [v] is the NLP's least
    constraint violation, or under [Region] how far the property bound
    lies outside the interval bound of [f] over the whole box.
    @raise Pquery.Unsupported on properties outside the parametric
    fragment. *)
