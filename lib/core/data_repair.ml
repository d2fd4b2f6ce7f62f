type spec = {
  groups : (string * Trace.t list) list;
  max_drop : float;
  pinned : string list;
}

let spec ?(max_drop = 0.999) ?(pinned = []) groups =
  if max_drop <= 0.0 || max_drop >= 1.0 then
    invalid_arg "Data_repair.spec: max_drop must lie in (0, 1)";
  List.iter
    (fun p ->
       if not (List.mem_assoc p groups) then
         invalid_arg (Printf.sprintf "Data_repair.spec: unknown pinned group %s" p))
    pinned;
  { groups; max_drop; pinned }

type repaired = {
  dtmc : Dtmc.t;
  drop_fractions : (string * float) list;
  cost : float;
  achieved_value : float;
  dropped_traces : float;
  symbolic_constraint : Ratfun.t;
  verified : bool;
  certificate : Region_repair.certificate option;
}

type result =
  | Already_satisfied of float option
  | Repaired of repaired
  | Infeasible of { min_violation : float }

let repair ~n ~init ?(labels = []) ?rewards
    ?(backend = Repair_backend.Nlp_solver) ?(starts = 12) phi sp =
  if sp.groups = [] then invalid_arg "Data_repair: no trace groups";
  (* Parametric re-learning: model as rational functions of drop vector. *)
  let pmodel =
    Instr.time Instr.Learn (fun () ->
        Mle.parametric_mle ~n ~init ~labels ?rewards ~groups:sp.groups ())
  in
  (* the model learned from the unrepaired data (all x_g = 0) *)
  let original = Pdtmc.instantiate pmodel (fun _ -> Ratio.zero) in
  match Repair_backend.verify_original backend original phi with
  | Some v when v.Check_dtmc.holds -> Already_satisfied v.Check_dtmc.value
  | _ -> (
    (* learned transition probabilities are ratios of non-negative trace
       counts, so they stay in [0,1] without edge constraints; pinned
       groups are fixed at 0 by zero-width bounds *)
    let variables =
      List.map
        (fun (g, _) ->
           (g, 0.0, if List.mem g sp.pinned then 0.0 else sp.max_drop))
        sp.groups
    in
    match
      Repair_backend.solve backend ~starts ~variables ~edges:[] pmodel phi
    with
    | Error min_violation -> Infeasible { min_violation }
    | Ok r ->
      let drop_fractions =
        List.mapi (fun i (g, _) -> (g, r.point.(i))) sp.groups
      in
      Repaired
        {
          dtmc = r.Repair_backend.dtmc;
          drop_fractions;
          cost = r.cost;
          achieved_value = r.achieved_value;
          dropped_traces =
            List.fold_left2
              (fun acc (_, frac) (_, traces) ->
                 acc +. (frac *. float_of_int (List.length traces)))
              0.0 drop_fractions sp.groups;
          symbolic_constraint = r.query.Pquery.value;
          verified = r.verified;
          certificate = r.certificate;
        })
