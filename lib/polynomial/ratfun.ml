module Q = Ratio
module P = Poly

type t = { num : P.t; den : P.t }

(* ------------------------------------------------------------------ *)
(* Univariate polynomial helpers (dense Q.t arrays, index = degree)    *)
(* ------------------------------------------------------------------ *)

let uni_trim a =
  let n = ref (Array.length a) in
  while !n > 0 && Q.is_zero a.(!n - 1) do decr n done;
  Array.sub a 0 !n

let uni_deg a = Array.length (uni_trim a) - 1

(* Division with remainder over the field Q; b must be non-zero. *)
let uni_divmod a b =
  let a = uni_trim a and b = uni_trim b in
  let db = Array.length b - 1 in
  assert (db >= 0);
  let r = Array.copy a in
  let da = Array.length a - 1 in
  if da < db then ([| |], r)
  else begin
    let q = Array.make (da - db + 1) Q.zero in
    let lead = b.(db) in
    for k = da - db downto 0 do
      let c = Q.div r.(k + db) lead in
      q.(k) <- c;
      if not (Q.is_zero c) then
        for i = 0 to db do
          r.(k + i) <- Q.sub r.(k + i) (Q.mul c b.(i))
        done
    done;
    (uni_trim q, uni_trim r)
  end

let rec uni_gcd a b =
  let b = uni_trim b in
  if Array.length b = 0 then uni_trim a
  else begin
    let _, r = uni_divmod a b in
    uni_gcd b r
  end

let uni_monic a =
  let a = uni_trim a in
  let n = Array.length a in
  if n = 0 then a
  else begin
    let lead = a.(n - 1) in
    if Q.equal lead Q.one then a else Array.map (fun c -> Q.div c lead) a
  end

(* ------------------------------------------------------------------ *)
(* Normal form                                                         *)
(* ------------------------------------------------------------------ *)

(* Leading coefficient of a polynomial w.r.t. the monomial order. *)
let leading_coeff p =
  match P.to_const_opt p with
  | Some c -> c
  | None ->
    (* max binding of the internal map; recover via to_string-free trick:
       evaluate is wrong — instead use the univariate view when possible,
       otherwise normalise by the coefficient of the largest monomial, which
       we obtain by folding. *)
    (match P.to_univariate_opt p with
     | Some (_, coeffs) ->
       let c = uni_trim coeffs in
       c.(Array.length c - 1)
     | None ->
       (* Multivariate: fall back to an arbitrary-but-deterministic choice,
          the coefficient of the constant term if present, else 1. We only
          need *some* canonical scaling; exactness is unaffected. *)
       let c = P.coeff_of_const p in
       if Q.is_zero c then Q.one else c)

let normalize num den =
  if P.is_zero den then raise Division_by_zero;
  if P.is_zero num then { num = P.zero; den = P.one }
  else begin
    (* Cancel common univariate factors when both sides live in the same
       single variable. *)
    let num, den =
      match (P.to_univariate_opt num, P.to_univariate_opt den) with
      | Some (x, ca), Some (y, cb)
        when (x = y || x = "" || y = "") && (x <> "" || y <> "") ->
        let g = uni_monic (uni_gcd ca cb) in
        if uni_deg g >= 1 then begin
          let qa, ra = uni_divmod ca g in
          let qb, rb = uni_divmod cb g in
          assert (Array.length ra = 0 && Array.length rb = 0);
          let v = if x <> "" then x else y in
          (P.of_univariate v qa, P.of_univariate v qb)
        end
        else (num, den)
      | _ -> (num, den)
    in
    (* Fold a constant denominator into the numerator; otherwise scale so
       the denominator's canonical coefficient is 1. *)
    match P.to_const_opt den with
    | Some c -> { num = P.scale (Q.inv c) num; den = P.one }
    | None ->
      let lc = leading_coeff den in
      if Q.equal lc Q.one then { num; den }
      else { num = P.scale (Q.inv lc) num; den = P.scale (Q.inv lc) den }
  end

let make num den = normalize num den

let of_poly p = { num = p; den = P.one }
let const c = of_poly (P.const c)
let of_int i = of_poly (P.of_int i)
let var x = of_poly (P.var x)
let zero = of_poly P.zero
let one = of_poly P.one

let num t = t.num
let den t = t.den
let is_zero t = P.is_zero t.num
let is_const t = P.is_const t.num && P.is_const t.den

let to_const_opt t =
  match (P.to_const_opt t.num, P.to_const_opt t.den) with
  | Some n, Some d -> Some (Q.div n d)
  | _ -> None

let vars t =
  let module S = Set.Make (String) in
  S.elements (S.union (S.of_list (P.vars t.num)) (S.of_list (P.vars t.den)))

let neg t = { t with num = P.neg t.num }

let inv t =
  if is_zero t then raise Division_by_zero
  else normalize t.den t.num

(* Inputs are already in normal form, so absorbing/identity elements can be
   returned as-is without re-running [normalize]. *)
let is_one t = P.equal t.num P.one && P.equal t.den P.one

let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if P.equal a.den b.den then normalize (P.add a.num b.num) a.den
  else
    normalize
      (P.add (P.mul a.num b.den) (P.mul b.num a.den))
      (P.mul a.den b.den)

let sub a b = add a (neg b)

let mul a b =
  if is_zero a || is_zero b then zero
  else if is_one a then b
  else if is_one b then a
  else normalize (P.mul a.num b.num) (P.mul a.den b.den)
let div a b = mul a (inv b)

let pow t e =
  if e >= 0 then normalize (P.pow t.num e) (P.pow t.den e)
  else inv (normalize (P.pow t.num (-e)) (P.pow t.den (-e)))

let ( + ) = add
let ( - ) = sub
let ( * ) = mul
let ( / ) = div

let equal a b =
  P.equal (P.mul a.num b.den) (P.mul b.num a.den)

let eval env t =
  let d = P.eval env t.den in
  if Q.is_zero d then raise Division_by_zero;
  Q.div (P.eval env t.num) d

let eval_float env t = P.eval_float env t.num /. P.eval_float env t.den

let compile t =
  let num = P.compile t.num and den = P.compile t.den in
  fun env -> num env /. den env

let subst x r f =
  (* f = n(x,..)/d(x,..); substitute x := rn/rd.  Clearing denominators:
     n and d are sums of monomials c * x^e * rest; multiply through by
     rd^(max degree). *)
  let dn = Stdlib.max (P.degree_in x f.num) (P.degree_in x f.den) in
  if dn = 0 then f
  else begin
    (* Write p = Σ_e p_e x^e with p_e free of x; then p(x := rn/rd) · rd^dn
       = Σ_e p_e rn^e rd^(dn-e), a polynomial again. *)
    let expand (p : P.t) : P.t =
      let result = ref P.zero in
      Array.iteri
        (fun e slice ->
           if not (P.is_zero slice) then
             result :=
               P.add !result
                 (P.mul slice
                    (P.mul (P.pow r.num e) (P.pow r.den Stdlib.(dn - e)))))
        (P.coeffs_in x p);
      !result
    in
    normalize (expand f.num) (expand f.den)
  end

let derivative x t =
  (* (n/d)' = (n' d - n d') / d^2 *)
  let n' = P.derivative x t.num and d' = P.derivative x t.den in
  normalize
    (P.sub (P.mul n' t.den) (P.mul t.num d'))
    (P.mul t.den t.den)

let to_string t =
  if P.is_zero t.num then "0"
  else
    match P.to_const_opt t.den with
    | Some c when Q.equal c Q.one -> P.to_string t.num
    | _ -> Printf.sprintf "(%s) / (%s)" (P.to_string t.num) (P.to_string t.den)

let pp fmt t = Format.pp_print_string fmt (to_string t)
