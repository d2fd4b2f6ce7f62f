type t = Nlp_solver | Region | Smc_prefilter

let to_string = function
  | Nlp_solver -> "nlp"
  | Region -> "region"
  | Smc_prefilter -> "smc-prefilter"

let all =
  [ ("nlp", Nlp_solver); ("region", Region); ("smc-prefilter", Smc_prefilter) ]

let of_string s =
  match List.assoc_opt s all with
  | Some b -> Ok b
  | None ->
    Error
      (Printf.sprintf "unknown backend %S (expected nlp, region or \
                       smc-prefilter)" s)

(* ----------------------- step 1: the original model ---------------------- *)

let prefilter_counter outcome =
  Metrics.counter ~help:"SMC pre-filter outcomes" ~label:("outcome", outcome)
    "tml_smc_prefilter_total"

(* Wald's SPRT at its default error levels, seeded with 0.  Only a
   statistical reject is acted on; an accept or an undecided/unsupported
   pre-check leaves the decision to the exact check. *)
let sprt_rejects dtmc phi =
  let rejects, outcome, detail =
    match Smc.sprt (Prng.create 0) dtmc phi with
    | Smc.Accept, n -> (false, "accept", ("samples", string_of_int n))
    | Smc.Reject, n -> (true, "reject", ("samples", string_of_int n))
    | (Smc.Undecided _ as v), _ ->
      (false, "fallthrough", ("why", Smc.verdict_to_string v))
    | exception Smc.Unsupported msg ->
      (false, "fallthrough", ("why", "unsupported: " ^ msg))
  in
  Metrics.incr (prefilter_counter outcome);
  ignore
    (Trace_span.event "region:smc-prefilter"
       ~attrs:[ ("outcome", outcome); detail ]);
  rejects

let verify_original backend dtmc phi =
  match backend with
  | Smc_prefilter when sprt_rejects dtmc phi -> None
  | Nlp_solver | Region | Smc_prefilter ->
    Some (Instr.time Instr.Check (fun () -> Check_dtmc.check_verbose dtmc phi))

(* ------------------------ steps 2-4: the repair NLP ----------------------- *)

type solved = {
  point : float array;
  cost : float;
  rung : string;
  certificate : Region_repair.certificate option;
  query : Pquery.query;
  dtmc : Dtmc.t;
  achieved_value : float;
  verified : bool;
}

let squared_l2 x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x

(* a small interior margin keeps the optimum strictly inside the feasible
   region so the repaired model re-verifies after float round-off *)
let property_margin = 1e-6

let edge_margin = 1e-9

let method_name = function
  | Nlp.Penalty -> "penalty"
  | Nlp.Augmented_lagrangian -> "augmented-lagrangian"

(* Region path: the same constraint system bounded over boxes instead of
   point-evaluated; branch-and-bound minimises the cost over the accept
   set with a global-optimality certificate. *)
let solve_region ~variables ~vars ~edge_exprs query =
  let box = Box.make variables in
  let property_c =
    Region_verify.of_query ~margin:property_margin ~vars query
  in
  let edge_cs =
    List.concat_map
      (fun (s, d, f) ->
         [ Region_verify.constr ~margin:edge_margin
             ~name:(Printf.sprintf "edge_%d_%d_pos" s d)
             ~vars Pctl.Gt 0.0 f;
           Region_verify.constr ~margin:edge_margin
             ~name:(Printf.sprintf "edge_%d_%d_lt1" s d)
             ~vars Pctl.Lt 1.0 f;
         ])
      edge_exprs
  in
  match
    Instr.time Instr.Solve (fun () ->
        Region_repair.minimize ~constraints:(property_c :: edge_cs) box)
  with
  | r ->
    Ok (r.Region_repair.point, r.Region_repair.cost, "region-bnb",
        Some r.Region_repair.certificate)
  | exception Tml_error.Error (Tml_error.Empty_feasible_box _) ->
    (* bound-derived violation estimate: how far the property bound sits
       outside anything achievable on the box *)
    let iv = Bounder.bounds property_c.Region_verify.bounder box in
    Error
      (match query.Pquery.cmp with
       | Pctl.Le | Pctl.Lt ->
         Float.max 0.0 (iv.Interval.lo -. query.Pquery.bound)
       | Pctl.Ge | Pctl.Gt ->
         Float.max 0.0 (query.Pquery.bound -. iv.Interval.hi))

(* NLP path (Eqs. 4-6): every constraint is arena-compiled against the
   variable order, so the optimizer's inner loop evaluates flat float
   programs indexed by position. *)
let solve_nlp ~solver ~fallback ~starts ~variables ~vars ~edge_exprs query =
  let edge_constraints =
    List.concat_map
      (fun (s, d, f) ->
         let a = Arena.compile ~vars f in
         [ ( Printf.sprintf "edge_%d_%d_pos" s d,
             fun x -> edge_margin -. Arena.eval a x );
           ( Printf.sprintf "edge_%d_%d_lt1" s d,
             fun x -> Arena.eval a x -. 1.0 +. edge_margin );
         ])
      edge_exprs
  in
  let property_constraint =
    ( "property",
      Pquery.compile_violation ~margin:property_margin query ~vars )
  in
  let problem =
    Nlp.problem ~dim:(List.length vars) ~objective:squared_l2
      ~inequalities:(property_constraint :: edge_constraints)
      ~lower:(Array.of_list (List.map (fun (_, lo, _) -> lo) variables))
      ~upper:(Array.of_list (List.map (fun (_, _, hi) -> hi) variables))
      ()
  in
  match
    Instr.time Instr.Solve (fun () ->
        if fallback then Nlp.solve_with_fallback ~starts problem
        else
          (Nlp.solve ~method_:solver ~starts problem,
           method_name solver))
  with
  | Nlp.Infeasible s, _ -> Error s.Nlp.max_violation
  | Nlp.Feasible s, rung -> Ok (s.Nlp.x, s.Nlp.objective_value, rung, None)

let solve backend ?(solver = Nlp.Penalty) ?(fallback = false) ~starts
    ~variables ~edges pmodel phi =
  let query =
    Instr.time Instr.Eliminate (fun () -> Pquery.of_formula pmodel phi)
  in
  let vars = List.map (fun (n, _, _) -> n) variables in
  let edge_exprs =
    List.map (fun (s, d) -> (s, d, List.assoc d (Pdtmc.succ pmodel s))) edges
  in
  let solution =
    match backend with
    | Region -> solve_region ~variables ~vars ~edge_exprs query
    | Nlp_solver | Smc_prefilter ->
      solve_nlp ~solver ~fallback ~starts ~variables ~vars ~edge_exprs query
  in
  Result.map
    (fun (point, cost, rung, certificate) ->
       (* instantiate the optimum and re-verify it numerically *)
       let assignment = List.mapi (fun i n -> (n, point.(i))) vars in
       let env v = Ratio.of_float (List.assoc v assignment) in
       let dtmc = Pdtmc.instantiate pmodel env in
       let verdict =
         Instr.time Instr.Check (fun () -> Check_dtmc.check_verbose dtmc phi)
       in
       {
         point;
         cost;
         rung;
         certificate;
         query;
         dtmc;
         achieved_value = Pquery.compile_value query ~vars point;
         verified = verdict.Check_dtmc.holds;
       })
    solution
