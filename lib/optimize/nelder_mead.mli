(** Derivative-free simplex minimisation (Nelder–Mead 1965), the inner
    solver of the constrained-repair NLPs. Robust to the mild
    non-smoothness introduced by penalty terms. *)

type result = {
  x : float array;
  f : float;
  iterations : int;
  converged : bool;
}

val minimize :
  ?max_iter:int ->
  ?tol:float ->
  ?initial_step:float ->
  (float array -> float) ->
  float array ->
  result
(** [minimize f x0] from the given start point; the initial simplex places
    one vertex at [x0] and perturbs each coordinate by [initial_step]
    (default 0.1, scaled up for large coordinates).  The loop allocates
    nothing per iteration: trial points and shrunk vertices are written
    into buffers owned by the call, so [f] may read its argument but must
    not retain it or mutate it — the array is overwritten by later
    steps.
    @raise Invalid_argument on an empty start point. *)
