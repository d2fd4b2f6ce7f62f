(* The traced pass's in-process replays.  After an operation's round trip
   (the root span), its input is run again in this process through the
   public entry points of each layer, one span per call, so that every
   layer's time can be read off without any tracing inside the program.
   Derived figures that are not span durations (frame sizes, the solver's
   share of a repair, dispatch overhead) are kept as plain values. *)

let values : (string, float list) Hashtbl.t = Hashtbl.create 16
let value_samples name = Option.value ~default:[] (Hashtbl.find_opt values name)
let add_value name v = Hashtbl.replace values name (v :: value_samples name)

(* The in-process serving stack the router replays go through: one
   worker, as the server runs by default, and no caches, so each replay
   does the full work.  Its pool is not left installed as the intra-job
   runner: the kernel replays time the sequential entry points, as the
   oracle's references run them. *)
let stack = ref None

let start () =
  if !stack = None then begin
    let rt =
      Runtime.create ~workers:1 ~report_cache_capacity:0 ~elim_cache_capacity:0 ()
    in
    Parallel.set_runner None;
    stack := Some (rt, Router.create rt)
  end

let shutdown () =
  Option.iter (fun (rt, _) -> Runtime.shutdown rt) !stack;
  stack := None

let timed ~parent ~req name f =
  let t0 = Span.now () in
  let r = Span.with_span ~parent ~req name (fun _ -> f ()) in
  (r, Span.now () -. t0)

let arena_evals = 1000

(* Replay one job request.  [~costly:false] skips the repair itself for
   kinds whose run costs most of a second (the pass samples them). *)
let job ?(costly = true) ~root ~req (r : Wire.job_request) =
  let sp name f = fst (timed ~parent:root ~req name f) in
  let obuf = Wire.Obuf.create () in
  let frame =
    sp "server.wire_encode" (fun () ->
        ignore
          (Wire.frame_into obuf (Wire.request_to_json ~id:1 (Wire.Submit r))
            : int);
        Wire.Obuf.contents obuf)
  in
  add_value "server.request_bytes" (float_of_int (String.length frame));
  sp "server.wire_decode" (fun () ->
      let d = Wire.Decoder.create () in
      Wire.Decoder.feed d (Bytes.unsafe_of_string frame) 0 (String.length frame);
      match Wire.Decoder.next d with
      | `Frame j -> ignore (Wire.request_of_json j : int * Wire.request)
      | `Await | `Oversized _ -> failwith "replay: frame did not decode");
  let kind = Wire.kind_of_job_request r in
  let job = sp ("io.parse." ^ kind) (fun () -> Wire.job_of_request r) in
  ignore (sp "runtime.digest" (fun () -> Job.digest job) : string);
  match job with
  | Job.Check { model; phi } ->
    let _, run = timed ~parent:root ~req "core.check" (fun () -> Job.run job) in
    ignore (sp "modelcheck.check" (fun () -> Check_dtmc.check model phi) : bool);
    let rt, router = Option.get !stack in
    let _, settle =
      timed ~parent:root ~req "runtime.submit_settle" (fun () ->
          Future.await (Runtime.submit rt job))
    in
    add_value "runtime.dispatch" (settle -. run);
    (match sp "server.router_submit" (fun () -> Router.handle router ~client:1 (Wire.Submit r)) with
     | Wire.Accepted { job = digest; _ } ->
       ignore
         (sp "server.router_wait" (fun () ->
              Router.handle router ~client:1 (Wire.Wait (digest, Some 30.0)))
           : Wire.response)
     | _ -> failwith "replay: router refused a check job")
  | Job.Model_repair { model; phi; spec; _ } ->
    let _, run = timed ~parent:root ~req "core.model_repair" (fun () -> Job.run job) in
    let pm = Model_repair.parametric_model model spec in
    let q, elim = timed ~parent:root ~req "parametric.eliminate" (fun () -> Pquery.of_formula pm phi) in
    let vars = List.map (fun (v, _, _) -> v) spec.Model_repair.variables in
    let f = Pquery.compile_violation q ~vars in
    let x =
      Array.of_list
        (List.map (fun (_, lo, hi) -> (lo +. hi) /. 2.0) spec.Model_repair.variables)
    in
    sp "polynomial.arena_eval" (fun () ->
        for _ = 1 to arena_evals do
          ignore (f x : float)
        done);
    let _, check = timed ~parent:root ~req "modelcheck.check" (fun () -> Check_dtmc.check model phi) in
    add_value "optimize.solve" (run -. elim -. check)
  | Job.Data_repair { n; init; labels; rewards; spec; _ } ->
    ignore (sp "core.data_repair" (fun () -> Job.run job) : Job.outcome);
    ignore
      (sp "learn.parametric_mle" (fun () ->
           Mle.parametric_mle ~n ~init ~labels ?rewards
             ~groups:spec.Data_repair.groups ())
        : Pdtmc.t)
  | Job.Reward_repair { mdp; theta; gamma; _ } ->
    if costly then
      ignore (sp "core.reward_repair" (fun () -> Job.run job) : Job.outcome);
    ignore
      (sp "mdp.value_iteration" (fun () ->
           Value.value_iteration ~gamma (Irl.apply_reward mdp theta))
        : float array)
  | Job.Pipeline _ -> ()

(* The watch path: a mirror of the hub's learner and checker per watch. *)
type mirror = { learner : Inc_learn.t; checker : Inc_check.t }

let mirrors : mirror list ref = ref []

(* [~count:false] keeps the mirror out of {!recheck_counts}. *)
let mirror ?(count = true) (spec : Wire.watch_spec) =
  let rewards =
    Option.map (fun rs -> Array.of_list (List.map Ratio.of_float rs)) spec.rewards
  in
  let m =
    {
      learner = Inc_learn.create ~n:spec.states;
      checker =
        Inc_check.create ~n:spec.states ~init:spec.init ~labels:spec.labels
          ?rewards (Pctl_parser.parse spec.phi);
    }
  in
  if count then mirrors := m :: !mirrors;
  m

(* Replay one appended chunk; [true] when it violates the property. *)
let append ~root ~req m chunk =
  let sp name f = fst (timed ~parent:root ~req name f) in
  let r = sp "stream.append" (fun () -> Inc_learn.append m.learner chunk) in
  let changed = r.Inc_learn.support_changed in
  let verdict =
    sp
      (if changed then "stream.recheck_elim" else "stream.recheck_cached")
      (fun () ->
        match Inc_check.check m.checker ~support_changed:changed (Inc_learn.counts m.learner) with
        | v -> Some v
        | exception _ -> None)
  in
  match verdict with
  | Some { Inc_check.violated = true; _ } ->
    let text =
      sp "stream.resubmit" (fun () -> Trace_io.to_string (Inc_learn.groups m.learner))
    in
    add_value "stream.resubmit_bytes" (float_of_int (String.length text));
    true
  | _ -> false

(* (cached re-checks, all re-checks) over every mirrored watch *)
let recheck_counts () =
  List.fold_left
    (fun (c, all) m ->
      let k = Inc_check.cached_rechecks m.checker in
      (c + k, all + k + Inc_check.eliminations m.checker))
    (0, 0) !mirrors
