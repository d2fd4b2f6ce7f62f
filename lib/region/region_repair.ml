(* The paper's squared-L2 perturbation cost, with its exact box lower
   bound and box argmin (per-dimension clamp of 0 into the box), so the
   certificate gap is tight. *)
let cost_at x = Array.fold_left (fun acc v -> acc +. (v *. v)) 0.0 x

let box_lower b =
  let s = ref 0.0 in
  for i = 0 to Box.dim b - 1 do
    let lo = Box.lo b i and hi = Box.hi b i in
    if lo > 0.0 || hi < 0.0 then s := !s +. Float.min (lo *. lo) (hi *. hi)
  done;
  !s

let box_argmin b = Box.clamp b (Array.make (Box.dim b) 0.0)

type settings = { gap : float; max_regions : int; min_width : float }

let default_settings = { gap = 0.05; max_regions = 20_000; min_width = 1e-6 }

type certificate = {
  best_cost : float;
  cost_lower_bound : float;
  optimality_gap : float;
  decided_fraction : float;
  feasible_fraction : float;
  regions_explored : int;
}

type repaired = {
  point : float array;
  cost : float;
  certificate : certificate;
}

let incumbents_counter =
  lazy
    (Metrics.counter ~help:"Incumbent improvements in certified repair"
       "tml_region_repair_incumbents_total")

let minimize ?(settings = default_settings) ~constraints root =
  Trace_span.with_span "region.repair"
    ~attrs:[ ("box", Box.to_string root) ]
  @@ fun () ->
  let measure =
    let rw = Box.widths root in
    fun box ->
      let m = ref 1.0 in
      Array.iteri
        (fun i w -> if w > 0.0 then m := !m *. Box.width box i /. w)
        rw;
      !m
  in
  let queue = Region_heap.create () in
  Region_heap.push queue (box_lower root) (root, 1.0);
  let incumbent = ref None in
  let inc_cost () =
    match !incumbent with Some (c, _) -> c | None -> infinity
  in
  let accept = ref 0.0 and reject = ref 0.0 in
  let pruned = ref 0.0 and undecided = ref 0.0 in
  (* lowest cost bound among regions resolved without full exploration:
     accepted boxes (their exact/box lower bound), abandoned unknowns and,
     at early stop, everything left in the queue *)
  let lb_floor = ref infinity in
  let note_lb lb = if lb < !lb_floor then lb_floor := lb in
  let explored = ref 0 in
  let improve p =
    let c = cost_at p in
    if c < inc_cost () then begin
      incumbent := Some (c, p);
      Metrics.incr (Lazy.force incumbents_counter)
    end
  in
  let stopped = ref false in
  while (not !stopped) && Region_heap.size queue > 0 do
    match Region_heap.pop queue with
    | None -> stopped := true
    | Some (lb, (box, m)) ->
      (* min-heap: [lb] bounds every queued region from below, so once it
         clears the gap-adjusted incumbent the whole frontier is pruned *)
      if lb >= inc_cost () *. (1.0 -. settings.gap) then begin
        pruned := !pruned +. m;
        Region_heap.iter (fun _ (_, m') -> pruned := !pruned +. m') queue;
        note_lb lb;
        stopped := true
      end
      else if !explored >= settings.max_regions then begin
        undecided := !undecided +. m;
        Region_heap.iter
          (fun _ (_, m') -> undecided := !undecided +. m')
          queue;
        note_lb lb;
        stopped := true
      end
      else begin
        incr explored;
        match Region_verify.classify constraints box with
        | Region_verify.Accept ->
          accept := !accept +. m;
          note_lb (box_lower box);
          improve (box_argmin box)
        | Region_verify.Reject -> reject := !reject +. m
        | Region_verify.Unknown ->
          let p = box_argmin box in
          if Region_verify.point_feasible constraints p then improve p
          else begin
            let c = Box.center box in
            if Region_verify.point_feasible constraints c then improve c
          end;
          let i = Box.longest_edge box in
          if Box.width box i <= settings.min_width then begin
            undecided := !undecided +. m;
            note_lb lb
          end
          else begin
            let a, b = Box.bisect box i in
            Region_heap.push queue (box_lower a) (a, measure a);
            Region_heap.push queue (box_lower b) (b, measure b)
          end
      end
  done;
  match !incumbent with
  | None ->
    let msg =
      if !reject >= 1.0 -. 1e-9 && !undecided <= 1e-9 then
        Printf.sprintf
          "region repair: accept set of %s is provably empty (every point \
           violates a constraint)"
          (Box.to_string root)
      else
        Printf.sprintf
          "region repair: no feasible point found in %s (%.1f%% rejected, \
           %.1f%% undecided after %d regions)"
          (Box.to_string root) (100.0 *. !reject) (100.0 *. !undecided)
          !explored
    in
    raise (Tml_error.Error (Tml_error.Empty_feasible_box msg))
  | Some (c, p) ->
    let lower = Float.min !lb_floor c in
    let gap = if c > 0.0 then Float.max 0.0 ((c -. lower) /. c) else 0.0 in
    let certificate =
      {
        best_cost = c;
        cost_lower_bound = lower;
        optimality_gap = gap;
        decided_fraction = !accept +. !reject +. !pruned;
        feasible_fraction = !accept;
        regions_explored = !explored;
      }
    in
    Trace_span.add_attr "gap" (Printf.sprintf "%.4f" gap);
    Trace_span.add_attr "regions" (string_of_int !explored);
    { point = p; cost = c; certificate }

let pp_certificate fmt c =
  Format.fprintf fmt
    "cost %.6g >= %.6g (gap %.2f%%), decided volume %.1f%%, %d regions"
    c.best_cost c.cost_lower_bound
    (100.0 *. c.optimality_gap)
    (100.0 *. c.decided_fraction)
    c.regions_explored
