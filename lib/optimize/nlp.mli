(** Constrained non-linear programming by penalty / augmented-Lagrangian
    methods with deterministic multistart.

    This is the library's substitute for the paper's AMPL + local solver
    step (Eqs. 4–6): minimise a smooth cost subject to inequality
    constraints [g_i(x) <= 0] and box bounds. The repair NLPs are tiny
    (1–3 variables, rational-function constraints), so a derivative-free
    inner solver plus multistart finds the same local optima a commercial
    solver reports — and, crucially, it can also {e report infeasibility},
    which is how the paper's "Model Repair gives infeasible solution" case
    (X = 19) is detected. *)

type problem = {
  dim : int;
  objective : float array -> float;
  inequalities : (string * (float array -> float)) list;
      (** named constraints, satisfied when [g x <= 0] *)
  lower : float array;
  upper : float array;
}

val problem :
  dim:int ->
  objective:(float array -> float) ->
  ?inequalities:(string * (float array -> float)) list ->
  ?lower:float array ->
  ?upper:float array ->
  unit ->
  problem
(** Bounds default to [±1e3]. @raise Invalid_argument on dimension
    mismatches or [dim <= 0]. *)

type solution = {
  x : float array;
  objective_value : float;
  max_violation : float;  (** max over constraints of [max 0 (g x)] *)
  violated : (string * float) list;  (** constraints with violation > tol *)
}

type outcome =
  | Feasible of solution
  | Infeasible of solution
      (** the least-violating point found; its [max_violation] is the
          infeasibility certificate (best-effort, from multistart) *)

type method_ = Penalty | Augmented_lagrangian

val solve : ?method_:method_ -> ?starts:int -> ?seed:int -> problem -> outcome
(** Multistart (default 12 starts, seed 0, feasibility tolerance 1e-7,
    4000 Nelder–Mead iterations per inner minimisation).
    The starts run one after another on the calling domain, never fanned
    out: the objective and constraints are usually arena-compiled
    programs that keep their evaluation scratch inside themselves, so
    they must not be called from two domains at once.
    Among feasible local optima the best objective wins.  NaN objective or
    constraint values are guarded to [+inf], so an objective that is
    undefined on part of the box cannot poison candidate selection.
    @raise Invalid_argument on [starts < 1].
    @raise Tml_error.Error ([Solver_nonconvergence]) when {e no} start
    produced a finite evaluation — a transient failure the runtime's
    retry layer may re-run. *)

val solve_with_fallback :
  ?starts:int -> ?seed:int -> problem -> outcome * string
(** The graceful-degradation ladder: augmented Lagrangian, then penalty,
    then penalty with [3×starts] (rung labels ["augmented-lagrangian"],
    ["penalty"], ["penalty-wide"]) — the escalation order suggested by
    "Model Repair Revamped": try the sharper method first, fall back to
    the more robust one, then widen the multistart before conceding
    infeasibility.  Tries each rung in order, returning the first
    feasible solution with the label of the rung that produced it.  A
    rung runs only if every earlier rung was infeasible or failed
    transiently; each attempt counts once in [tml_nlp_rungs_total] and
    records an [nlp:rung] span.  If no rung is feasible, the
    least-violating infeasible point across all rungs is returned (with
    its rung's label); transient non-convergence of individual rungs is
    tolerated as long as some rung converges, and re-raised otherwise. *)
