type spec = {
  variables : (string * float * float) list;
  deltas : (int * int * Ratfun.t) list;
}

type repaired = {
  dtmc : Dtmc.t;
  assignment : (string * float) list;
  cost : float;
  achieved_value : float;
  symbolic_constraint : Ratfun.t;
  verified : bool;
  epsilon_bisimilarity : float;
  solver_rung : string;
  certificate : Region_repair.certificate option;
}

type result =
  | Already_satisfied of float option
  | Repaired of repaired
  | Infeasible of { min_violation : float }

let validate_spec dtmc spec =
  let names = List.map (fun (n, _, _) -> n) spec.variables in
  if List.length (List.sort_uniq String.compare names) <> List.length names then
    invalid_arg "Model_repair: duplicate variable names";
  List.iter
    (fun (n, lo, hi) ->
       if lo > hi then
         invalid_arg (Printf.sprintf "Model_repair: empty bounds for %s" n))
    spec.variables;
  List.iter
    (fun (s, d, _) ->
       if Dtmc.prob dtmc s d <= 0.0 then
         invalid_arg
           (Printf.sprintf
              "Model_repair: delta on non-existent edge %d->%d (structure \
               must be preserved, Eq. 3)"
              s d))
    spec.deltas;
  (* all delta variables must be declared *)
  List.iter
    (fun (s, d, f) ->
       List.iter
         (fun v ->
            if not (List.mem v names) then
              invalid_arg
                (Printf.sprintf
                   "Model_repair: edge %d->%d uses undeclared variable %s" s d v))
         (Ratfun.vars f))
    spec.deltas

let parametric_model dtmc spec =
  validate_spec dtmc spec;
  let delta s d =
    List.fold_left
      (fun acc (s', d', f) -> if s = s' && d = d' then Ratfun.add acc f else acc)
      Ratfun.zero spec.deltas
  in
  let base = Pdtmc.of_dtmc dtmc in
  (* Pdtmc.make re-validates symbolic row sums, enforcing that each row's
     deltas cancel. *)
  Pdtmc.map_transitions base (fun s d p -> Ratfun.add p (delta s d))

let repair ?(backend = Repair_backend.Nlp_solver) ?solver ?(starts = 12)
    ?fallback dtmc phi spec =
  match Repair_backend.verify_original backend dtmc phi with
  | Some v when v.Check_dtmc.holds -> Already_satisfied v.Check_dtmc.value
  | _ -> (
    let pmodel = parametric_model dtmc spec in
    if spec.variables = [] then
      invalid_arg "Model_repair: no perturbation variables";
    let edges =
      List.sort_uniq compare (List.map (fun (s, d, _) -> (s, d)) spec.deltas)
    in
    match
      Repair_backend.solve backend ?solver ?fallback ~starts
        ~variables:spec.variables ~edges pmodel phi
    with
    | Error min_violation -> Infeasible { min_violation }
    | Ok r ->
      Repaired
        {
          dtmc = r.Repair_backend.dtmc;
          assignment =
            List.mapi (fun i (n, _, _) -> (n, r.point.(i))) spec.variables;
          cost = r.cost;
          achieved_value = r.achieved_value;
          symbolic_constraint = r.query.Pquery.value;
          verified = r.verified;
          epsilon_bisimilarity = Bisimulation.epsilon_bound dtmc r.dtmc;
          solver_rung = r.rung;
          certificate = r.certificate;
        })
