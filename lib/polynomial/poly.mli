(** Sparse multivariate polynomials over exact rationals.

    Variables are named by strings. A polynomial is a finite map from
    monomials (variable -> positive exponent) to non-zero rational
    coefficients. This is the coefficient domain produced by parametric
    model checking: transition probabilities of a parametric Markov chain
    are polynomials (and, after state elimination, ratios of them). *)

type t

(** {1 Construction} *)

val zero : t
val one : t
val const : Ratio.t -> t
val of_int : int -> t
val var : string -> t

(** {1 Algebra} *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val scale : Ratio.t -> t -> t
val pow : t -> int -> t
(** @raise Invalid_argument on a negative exponent. *)

val ( + ) : t -> t -> t
val ( - ) : t -> t -> t
val ( * ) : t -> t -> t

(** {1 Queries} *)

val is_zero : t -> bool
val is_const : t -> bool
val to_const_opt : t -> Ratio.t option
val equal : t -> t -> bool
val compare : t -> t -> int

val degree : t -> int
(** Total degree; [degree zero = -1] by convention. *)

val degree_in : string -> t -> int
val vars : t -> string list
(** Sorted, without duplicates. *)

val num_terms : t -> int

val coeff_of_const : t -> Ratio.t
(** The constant term (zero if absent). *)

(** {1 Evaluation and substitution} *)

val eval : (string -> Ratio.t) -> t -> Ratio.t
val eval_float : (string -> float) -> t -> float

(** [compile p] precomputes float coefficients and the monomial structure
    once; the returned closure evaluates in a few flops per term. Use this
    when the same polynomial is evaluated many times (e.g. inside an
    optimisation loop) — exact coefficients can be arbitrarily large
    rationals, making {!eval_float} pay a bignum-to-float conversion on
    every call. *)
val compile : t -> (string -> float) -> float
val subst : string -> t -> t -> t
(** [subst x p q] replaces every occurrence of variable [x] in [q] by [p]. *)

val derivative : string -> t -> t

val coeffs_in : string -> t -> t array
(** [coeffs_in x p] is [p] as a polynomial in [x] over the other
    variables: slot [e] holds the coefficient of [x^e], so
    [p = Σ_e (coeffs_in x p).(e) · x^e].  The array has
    [degree_in x p + 1] slots; absent powers are {!zero}. *)

(** {1 Univariate view} *)

val to_univariate_opt : t -> (string * Ratio.t array) option
(** When the polynomial mentions at most one variable, returns that variable
    and dense coefficients [c0; c1; ...] (constant polynomials report the
    variable [""]). *)

val of_univariate : string -> Ratio.t array -> t

(** {1 Printing} *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
