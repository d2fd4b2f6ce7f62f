(* The served-repair benchmark.  Starts the shipped [tml serve] as a child
   process, drives one workload against it over at most [nproc]
   connections in closed loops (every caller waits for its reply), checks
   every reply against an in-process reference, and prints one JSON
   result line: end-to-end metrics, or with [--trace 1] the per-layer
   breakdown from in-process replays.  The end-to-end times are the
   server's CPU time, read from its process CPU clock: on a shared host
   that leaves out the time other tasks and guests held the CPUs, which
   moved the wall-clock figures of the same code by up to twofold.  They
   are scaled by the host's speed in the run, timed on a reference
   computation ([Calib]).

   Usage: bench.exe --workload repair-mix|serve-hot|watch-stream
            --seed N --seconds S --trace 0|1 [--tml PATH] [--commit SHA] *)

open Tml_perfbench

let workload = ref ""
let seed = ref 1
let seconds = ref 10.0
let trace = ref false
let tml = ref "_build/default/bin/tml_cli.exe"
let commit = ref "unknown"
let out_dir = ref "perfbench/out"
let now = Span.now

(* Load connections: repair-mix drives one, so that the server CPU read
   around a job is that job's alone; the watch episodes use two (an
   appender and a follower).  Never more than [nproc]. *)
let max_connections = 2

(* Extra start/stop cycles of the server measured for [setup_s], before
   the window.  Every round's start is measured too. *)
let setup_samples = 7

(* The window is a sequence of rounds, each on a fresh server doing the
   same amount of work: two repair-mix blocks, or 100 watch episodes.  So
   the server's state (its caches, and its heap, which grows with every
   watch registered) follows the work done, not the run's length or the
   share of the host a run got, and per-op figures and peak RSS compare
   across runs.  serve-hot runs one round: its warm-up fills the caches
   the window measures. *)
let round_size () = if !workload = "repair-mix" then 2 * Array.length Gen.block else 100

(* Untimed serve-hot warm-up, seconds: long enough for every hot job
   to be settled on the server, after which the bulk connection's
   pipelined windows are answered from memory and the interactive
   latency reaches its steady state (about 2 s on a 2-core box). *)
let warmup_s = 3.0

(* A server that stops answering ends the run this long after the
   window. *)
let stall_s = 60.0

(* ------------------------------- ops ------------------------------- *)

(* Every operation is counted when its reply arrives.  The ones the
   oracle checks after the window, and every repair (for the per-kind
   latencies), also keep a record; the hot serve path keeps none, so the
   generator's own heap, and its collector's pauses, stay out of the
   latencies it measures. *)
type op = {
  conn : string;
  kind : string;
  t0 : float;
  t1 : float;
  cpu : float;  (** server CPU seconds from the send to the reply; nan if not read *)
  in_window : bool;  (** counts toward the window's throughput *)
  mutable failure : string option;
}

let records : op list ref = ref []
let deferred : (unit -> unit) list ref = ref []
let attempted = ref 0
let window_ops = ref 0
let window_ok = ref 0
let window_end = ref 0.0

(* (send time, round trip) of the window's latency samples *)
let latencies : (float * float) list ref = ref []
let reasons : (string, int) Hashtbl.t = Hashtbl.create 8

let count_failure reason =
  Hashtbl.replace reasons reason (1 + Option.value ~default:0 (Hashtbl.find_opt reasons reason))

let current_server : Serve.t option ref = ref None

(* the server CPU clock when serve-hot's window opened, after its warm-up *)
let window_cpu_start = ref nan

let add_op ?(keep = true) ?(cpu = nan) ~conn ~kind ~t0 ~t1 ~in_window ~timed failure =
  incr attempted;
  if timed then latencies := (t0, t1 -. t0) :: !latencies;
  if in_window then begin
    incr window_ops;
    window_end := Float.max !window_end t1
  end;
  (match failure with
   | Some r -> count_failure r
   | None -> if in_window then incr window_ok);
  let o = { conn; kind; t0; t1; cpu; in_window; failure } in
  if keep then records := o :: !records;
  o

(* Queue a reference check for after the timed window. *)
let defer f = deferred := f :: !deferred

let fail o reason =
  if o.failure = None then begin
    o.failure <- Some reason;
    count_failure reason;
    if o.in_window then decr window_ok
  end

let error_reason = function
  | Wire.Error_reply e -> e.Wire.kind
  | _ -> "unexpected-reply"

(* ------------------------------ jobs ------------------------------- *)

let state_name = function
  | Wire.Job_pending -> "pending"
  | Wire.Job_done _ -> "done"
  | Wire.Job_failed e -> "failed:" ^ e.Wire.kind
  | Wire.Job_cancelled -> "cancelled"
  | Wire.Job_timed_out -> "timed-out"

type job_reply = (string * string * Wire.response, string) result
(** the digest, the report and the wait reply; or why it failed *)

let server_cpu () = match !current_server with Some s -> Serve.cpu_s s | None -> nan

(* One job op: submit, then wait on the digest.  [finish] gets the round
   trip, the server CPU time it took, and the outcome, and returns the
   connection's next step. *)
let job_steps r (finish : t0:float -> t1:float -> cpu:float -> job_reply -> Loadgen.step) =
  let c0 = server_cpu () in
  let t0 = now () in
  let finish res = let t1 = now () in finish ~t0 ~t1 ~cpu:(server_cpu () -. c0) res in
  Loadgen.Send
    ( [ Wire.Submit r ],
      function
      | [ Wire.Accepted { job; _ } ] ->
        Loadgen.Send
          ( [ Wire.Wait (job, Some 60.0) ],
            function
            | [ (Wire.Status { state = Wire.Job_done report; _ } as resp) ] ->
              finish (Ok (job, report, resp))
            | [ Wire.Status { state; _ } ] -> finish (Error (state_name state))
            | [ resp ] -> finish (Error (error_reason resp))
            | _ -> finish (Error "unexpected-reply") )
      | [ resp ] -> finish (Error (error_reason resp))
      | _ -> finish (Error "unexpected-reply") )

let report_of job = Format.asprintf "%a" Job.pp_outcome (Job.run job)

(* Record a job op; [check] says whether the oracle compares its report
   with the in-process reference ([expected] when the caller has it). *)
let record_job ~conn ~t0 ~t1 ~cpu ~in_window ~timed ~check ?expected r (res : job_reply) =
  let kind = Wire.kind_of_job_request r in
  match res with
  | Error reason -> ignore (add_op ~cpu ~conn ~kind ~t0 ~t1 ~in_window ~timed (Some reason) : op)
  | Ok (digest, report, _) ->
    let o = add_op ~cpu ~conn ~kind ~t0 ~t1 ~in_window ~timed None in
    if check then
      defer (fun () ->
          let want_digest, want_report =
            match expected with
            | Some f -> f ()
            | None ->
              let job = Wire.job_of_request r in
              (Job.digest job, report_of job)
          in
          if digest <> want_digest then fail o ("digest-mismatch:" ^ kind)
          else if report <> want_report then fail o ("report-mismatch:" ^ kind))

(* ----------------------------- tracing ----------------------------- *)

let reply_bytes resp =
  float_of_int (4 + String.length (Wire.render (Wire.response_to_json ~id:1 resp)))

(* A ping after a traced op, timed as [server.ping]; then [k]. *)
let ping_then ~req k =
  let t0 = now () in
  Loadgen.Send
    ( [ Wire.Ping ],
      fun _ ->
        ignore (Span.record ~req "server.ping" t0 (now ()) : int);
        k () )

(* The root span of a traced op is its client round trip; the in-process
   replay and a ping follow it, outside the round trip. *)
let trace_job ?(costly = true) ~req ~t0 ~t1 r (res : job_reply) =
  let root = Span.record ~req "rtt" t0 t1 in
  (match res with
   | Ok (_, _, resp) -> Replay.add_value "server.reply_bytes" (reply_bytes resp)
   | Error _ -> ());
  Replay.job ~costly ~root ~req r;
  ping_then ~req (fun () -> Loadgen.Done)

(* ---------------------------- repair-mix --------------------------- *)

(* Reward repairs cost most of a second: the oracle re-runs a seeded
   quarter of them (and the first), and the traced pass replays the
   same ones. *)
let sampled i = Gen.Rng.float (Gen.Rng.make !seed [ 8; i ]) < 0.25

let first_reward = ref true

type round = {
  setup : float * float;  (** from spawn to first ping: wall and server CPU seconds *)
  cpu_s : float;  (** server CPU over the round *)
  ok_ops : int;  (** window ops with a correct reply *)
  rss_mb : float;  (** peak RSS at the round's end *)
  stats : Wire.json;  (** the server's Stats reply *)
  complete : bool;  (** it did all its work before the deadline *)
}

(* Ops [first, last) of the mix, one at a time, until [deadline]; the
   result tells whether all of them were sent. *)
let repair_mix ~first ~last ~deadline ~trace_from c =
  let next = ref first in
  Loadgen.start c (fun () ->
      if now () >= deadline || !next >= last then Loadgen.Done
      else begin
        let i = !next in
        incr next;
        let r = Gen.mix_request ~seed:!seed i in
        job_steps r (fun ~t0 ~t1 ~cpu res ->
            let costly =
              match r with
              | Wire.Reward_repair_req _ ->
                let first = !first_reward in
                first_reward := false;
                first || sampled i
              | _ -> true
            in
            record_job ~conn:"mix" ~t0 ~t1 ~cpu ~in_window:true ~timed:true ~check:costly r
              res;
            if !trace && t0 >= trace_from then trace_job ~costly ~req:i ~t0 ~t1 r res
            else Loadgen.Done)
      end);
  fun () -> !next >= last

(* ----------------------------- serve-hot --------------------------- *)

let hot_window = 32

(* Every pool job's reference is computed before the window, so each
   reply is checked as it arrives and nothing is kept. *)
let serve_hot ~window_start ~deadline ~trace_from interactive bulk =
  let pool = Gen.hot_pool ~seed:!seed in
  let jobs = Array.map Wire.job_of_request pool in
  let digests = Array.map Job.digest jobs in
  let refs = Array.map report_of jobs in
  let check j = function
    | Ok (digest, report, _) ->
      if digest <> digests.(j) then Some "digest-mismatch:check"
      else if report <> refs.(j) then Some "report-mismatch:check"
      else None
    | Error reason -> Some reason
  in
  let i = ref 0 in
  let mark_window () =
    if Float.is_nan !window_cpu_start && now () >= window_start then
      window_cpu_start := server_cpu ()
  in
  Loadgen.start interactive (fun () ->
      mark_window ();
      if now () >= deadline then Loadgen.Done
      else begin
        let op = !i in
        incr i;
        let j = Gen.hot_pick ~seed:!seed ~conn:0 op in
        job_steps pool.(j) (fun ~t0 ~t1 ~cpu:_ res ->
            let in_window = t0 >= window_start in
            ignore
              (add_op ~keep:false ~conn:"interactive" ~kind:"check" ~t0 ~t1 ~in_window
                 ~timed:in_window (check j res)
                : op);
            if !trace && t0 >= trace_from then trace_job ~req:op ~t0 ~t1 pool.(j) res
            else Loadgen.Done)
      end);
  let w = ref 0 in
  Loadgen.start bulk (fun () ->
      mark_window ();
      if now () >= deadline then Loadgen.Done
      else begin
        let js =
          List.init hot_window (fun k -> Gen.hot_pick ~seed:!seed ~conn:1 ((!w * hot_window) + k))
        in
        incr w;
        (* a pipelined wait names its digest up front; the check confirms
           that the submit answered that same digest *)
        let reqs =
          List.concat_map (fun j -> [ Wire.Submit pool.(j); Wire.Wait (digests.(j), Some 60.0) ]) js
        in
        let t0 = now () in
        Loadgen.Send
          ( reqs,
            fun resps ->
              let t1 = now () in
              let in_window = t0 >= window_start in
              let rec pairs js resps =
                match (js, resps) with
                | j :: js, a :: b :: rest ->
                  let res =
                    match (a, b) with
                    | Wire.Accepted { job; _ }, Wire.Status { state = Wire.Job_done report; _ } ->
                      Ok (job, report, b)
                    | Wire.Accepted _, Wire.Status { state; _ } -> Error (state_name state)
                    | Wire.Accepted _, resp | resp, _ -> Error (error_reason resp)
                  in
                  ignore
                    (add_op ~keep:false ~conn:"bulk" ~kind:"check" ~t0 ~t1 ~in_window ~timed:false
                       (check j res)
                      : op);
                  pairs js rest
                | _ -> ()
              in
              pairs js resps;
              Loadgen.Done )
      end)

(* --------------------------- watch episodes ------------------------- *)

(* One episode: register a fresh watch (follower), append chunks until
   an Appended reply reports [violated] (appender), collect the
   violation and repair pushes (follower), unwatch (follower). *)
type episode = {
  e : int;
  name : string;
  traced : bool;
  counted : bool;  (** its ops count toward the window *)
  mutable registered : bool;
  mutable started : bool;
  mutable chunks : string list;  (** appended, newest first *)
  mutable appends : (op * Wire.response) list;  (** newest first *)
  mutable violated_at : (float * float) option;
      (** send time of the violating append, and the server CPU clock then *)
  mutable appending_done : bool;
  mutable deadline : float;  (** the follower stops waiting for pushes *)
  mutable pushes : (float * float * Wire.notification) list;
      (** arrival time, server CPU clock then, and the push; newest first *)
}

let episodes : episode list ref = ref []
let repair_wait_s = 30.0

(* Run episodes on [appender] and [follower] until [stop ()]. *)
let episode_loop ~first ~stop ~in_window ~trace_from appender follower =
  let by_name = Hashtbl.create 64 in
  let current = ref None in
  let next_e = ref first in
  follower.Loadgen.on_push <-
    (fun at n ->
      match Hashtbl.find_opt by_name n.Wire.watch with
      | Some ep -> ep.pushes <- (at, server_cpu (), n) :: ep.pushes
      | None -> ());
  let follower_op ~kind req k =
    let t0 = now () in
    Loadgen.Send
      ( [ req ],
        fun resps ->
          let t1 = now () in
          let ep = Option.get !current in
          let ok, failure =
            match (kind, resps) with
            | "watch", [ Wire.Watched _ ] | "unwatch", [ Wire.Unwatched _ ] -> (true, None)
            | _, [ resp ] -> (false, Some (error_reason resp))
            | _ -> (false, Some "unexpected-reply")
          in
          ignore
            (add_op ~keep:false ~conn:"follower" ~kind ~t0 ~t1 ~in_window:ep.counted
               ~timed:ep.counted failure
              : op);
          k ok )
  in
  Loadgen.start follower (fun () ->
      if stop () then Loadgen.Done
      else begin
        let e = !next_e in
        incr next_e;
        let name = Gen.watch_name ~seed:!seed e in
        let ep =
          {
            e;
            name;
            traced = now () >= trace_from;
            counted = in_window ();
            registered = false;
            started = false;
            chunks = [];
            appends = [];
            violated_at = None;
            appending_done = false;
            deadline = infinity;
            pushes = [];
          }
        in
        Hashtbl.replace by_name name ep;
        episodes := ep :: !episodes;
        current := Some ep;
        follower_op ~kind:"watch"
          (Wire.Watch_op { watch = name; spec = Some Gen.watch_spec; from_seq = None })
          (fun ok ->
            if not ok then Loadgen.Done
            else begin
              ep.registered <- true;
              let finished () =
                List.exists (fun (_, _, n) -> n.Wire.event <> "violation") ep.pushes
              in
              Loadgen.Park
                (fun () ->
                  if ep.appending_done && (finished () || now () > ep.deadline) then
                    Some (follower_op ~kind:"unwatch" (Wire.Unwatch name) (fun _ -> Loadgen.Done))
                  else None)
            end)
      end);
  let rec append ep mirror k =
    let chunk = Gen.watch_chunk ~seed:!seed ep.e k in
    let c0 = server_cpu () in
    let t0 = now () in
    Loadgen.Send
      ( [ Wire.Append_chunk { watch = ep.name; chunk } ],
        fun resps ->
          let t1 = now () in
          let cpu = server_cpu () -. c0 in
          let add failure =
            add_op ~cpu ~conn:"appender" ~kind:"append" ~t0 ~t1 ~in_window:ep.counted
              ~timed:ep.counted failure
          in
          let stop_appending ~wait =
            ep.appending_done <- true;
            ep.deadline <- (if wait then now () +. repair_wait_s else now ())
          in
          match resps with
          | [ (Wire.Appended a as resp) ] ->
            let o = add None in
            ep.chunks <- chunk :: ep.chunks;
            ep.appends <- (o, resp) :: ep.appends;
            if a.violated then begin
              ep.violated_at <- Some (t0, c0);
              stop_appending ~wait:true
            end
            else if k + 1 >= Gen.max_chunks then stop_appending ~wait:false;
            let continue () = if ep.appending_done then Loadgen.Done else append ep mirror (k + 1) in
            (match mirror with
             | Some m ->
               let root = Span.record ~req:ep.e "rtt" t0 t1 in
               Replay.add_value "server.reply_bytes" (reply_bytes resp);
               ignore (Replay.append ~root ~req:ep.e m chunk : bool);
               ping_then ~req:ep.e continue
             | None -> continue ())
          | [ resp ] ->
            ignore (add (Some (error_reason resp)) : op);
            stop_appending ~wait:false;
            Loadgen.Done
          | _ ->
            ignore (add (Some "unexpected-reply") : op);
            stop_appending ~wait:false;
            Loadgen.Done )
  in
  Loadgen.start appender (fun () ->
      if follower.Loadgen.idle then Loadgen.Done
      else
      Loadgen.Park
        (fun () ->
          match !current with
          | Some ep when ep.registered && not ep.started ->
            ep.started <- true;
            let mirror = if ep.traced then Some (Replay.mirror Gen.watch_spec) else None in
            Some (append ep mirror 0)
          | _ -> if follower.Loadgen.idle then Some Loadgen.Done else None))

let wire_float v =
  match Wire.parse (Wire.render (Wire.Num v)) with Wire.Num f -> f | _ -> nan

(* The oracle for one episode: every Appended verdict against an
   in-process Inc_learn/Inc_check replay of the same chunks, and the
   pushed repair against the batch submit of the concatenated chunks. *)
let check_episode ep =
  let spec = Gen.watch_spec in
  let m = Replay.mirror ~count:false spec in
  List.iter2
    (fun (o, got) chunk ->
      let r = Inc_learn.append m.Replay.learner chunk in
      let v =
        match
          Inc_check.check m.Replay.checker ~support_changed:r.Inc_learn.support_changed
            (Inc_learn.counts m.Replay.learner)
        with
        | v -> Some v
        | exception _ -> None
      in
      let violated = match v with Some v -> v.Inc_check.violated | None -> false in
      let want =
        Wire.Appended
          {
            watch = ep.name;
            lines = r.Inc_learn.lines;
            support_changed = r.Inc_learn.support_changed;
            value = Option.map (fun v -> wire_float v.Inc_check.value) v;
            violated;
            job =
              (if violated then
                 Some
                   (Job.digest
                      (Wire.job_of_request
                         (Wire.job_request_of_watch spec
                            ~traces:(Trace_io.to_string (Inc_learn.groups m.Replay.learner)))))
               else None);
            recheck =
              (match v with
               | Some { Inc_check.path = `Cached; _ } -> "cached"
               | Some { Inc_check.path = `Eliminated; _ } -> "eliminated"
               | None -> "unavailable");
          }
      in
      if got <> want then fail o "append-verdict-mismatch")
    (List.rev ep.appends) (List.rev ep.chunks);
  match (ep.violated_at, ep.appends) with
  | None, (o, _) :: _ -> fail o "no-violation"
  | None, [] | Some _, [] -> ()
  | Some _, (o, last) :: _ -> (
      let job = match last with Wire.Appended a -> a.job | _ -> None in
      let batch =
        Wire.job_of_request
          (Wire.job_request_of_watch spec ~traces:(String.concat "" (List.rev ep.chunks)))
      in
      let pushes = List.rev_map (fun (_, _, n) -> n) ep.pushes in
      let find ev = List.find_opt (fun n -> n.Wire.event = ev) pushes in
      match (find "violation", find "repair", find "error") with
      | None, _, _ -> fail o "no-violation-push"
      | _, None, Some { Wire.error = Some e; _ } ->
        Printf.eprintf "watch %s: repair error %s: %s\n" ep.name e.Wire.kind e.Wire.message;
        fail o ("repair-error:" ^ e.Wire.kind)
      | _, None, _ -> fail o "no-repair-push"
      | Some v, Some r, _ ->
        if v.Wire.job <> job || r.Wire.job <> job then fail o "push-job-mismatch"
        else if job <> Some (Job.digest batch) then fail o "watch-digest-mismatch"
        else if r.Wire.report <> Some (report_of batch) then fail o "watch-report-mismatch")

(* From the violating append's send to the push of [event]: the wall
   time, and the server CPU time. *)
let push_latency ep event =
  match ep.violated_at with
  | None -> None
  | Some (t, c) ->
    List.find_map
      (fun (at, cpu, n) -> if n.Wire.event = event then Some (at -. t, cpu -. c) else None)
      (List.rev ep.pushes)

(* ------------------------------ probes ------------------------------ *)

(* The probes give the figures a workload's own traffic does not: the
   per-kind repair figures for the watch workloads, the append and push
   figures for the others.  They run one request or episode at a time,
   in [probe_pieces] pieces, each on a fresh server: one after each of
   the window's first rounds and the rest after the window, so that they
   sample the host across the run, as the window does.  Probe requests
   do not count toward the window's throughput. *)
let probe_pieces = 8

(* The repair probe's piece [piece]: 6 model, 5 data and 1 reward repair.
   The oracle re-runs its reward repairs on a seeded quarter, and the
   first. *)
let first_probe_reward =
  Option.get (Array.find_index (fun (k, _) -> k = Gen.Reward) Gen.probe_slots)

let repair_probe ~piece c =
  let n = Array.length Gen.probe_slots / probe_pieces in
  let k = ref (piece * n) in
  Loadgen.start c (fun () ->
      if !k >= (piece + 1) * n then Loadgen.Done
      else begin
        let i = !k in
        incr k;
        let r = Gen.probe_request ~seed:!seed i in
        job_steps r (fun ~t0 ~t1 ~cpu res ->
            let check =
              fst Gen.probe_slots.(i) <> Gen.Reward || i = first_probe_reward || sampled i
            in
            record_job ~conn:"probe" ~t0 ~t1 ~cpu ~in_window:false ~timed:false ~check r res;
            Loadgen.Done)
      end)

(* The watch probe's piece [piece]: 15 episodes. *)
let watch_probe_episodes = 15
let watch_probe_first = 1_000_000

let watch_probe ~piece appender follower =
  let first = watch_probe_first + (piece * watch_probe_episodes) in
  episode_loop ~first
    ~stop:(fun () ->
      List.length (List.filter (fun ep -> ep.e >= first) !episodes) >= watch_probe_episodes)
    ~in_window:(fun () -> false) ~trace_from:infinity appender follower

let with_conns ?(n = max_connections) sock f =
  let conns = List.init n (fun _ -> Loadgen.connect sock) in
  Fun.protect ~finally:(fun () -> List.iter Loadgen.close conns) (fun () -> f conns)

(* the set-up times of the probes' servers *)
let probe_setups = ref []

let probe_piece piece =
  Calib.measure ();
  let server, wall, cpu = Serve.start ~tml:!tml ~dir:!out_dir in
  probe_setups := (wall, cpu) :: !probe_setups;
  current_server := Some server;
  let sock = server.Serve.sock in
  let hard_deadline = now () +. stall_s in
  if !workload <> "repair-mix" then
    with_conns ~n:1 sock (fun conns ->
        repair_probe ~piece (List.hd conns);
        Loadgen.run ~hard_deadline conns);
  if !workload <> "watch-stream" then
    with_conns sock (function
      | [ a; b ] as conns ->
        watch_probe ~piece a b;
        Loadgen.run ~hard_deadline conns
      | _ -> assert false);
  Serve.stop server

(* --------------------------- per-layer fill ------------------------- *)

(* Layers the workload's own traffic did not reach still get a figure,
   from in-process replays of a small seeded sample. *)
let fill_layers () =
  let names = Hashtbl.create 64 in
  List.iter (fun s -> Hashtbl.replace names s.Span.name ()) (Span.all ());
  let have n = Hashtbl.mem names n in
  if not (have "core.model_repair" && have "core.data_repair" && have "core.reward_repair") then
    Array.iteri
      (fun k _ ->
        Replay.job ~costly:(k = first_probe_reward) ~root:0 ~req:(-1 - k)
          (Gen.probe_request ~seed:!seed k))
      Gen.probe_slots;
  if not (have "core.check") then begin
    let pool = Gen.hot_pool ~seed:!seed in
    for k = 0 to 31 do
      Replay.job ~root:0 ~req:(-100 - k) pool.(k)
    done
  end;
  if not (have "stream.append") then
    for e = 0 to 2 do
      let m = Replay.mirror Gen.watch_spec in
      let rec go k =
        if k < Gen.max_chunks
           && not
                (Replay.append ~root:0 ~req:(-200 - e) m
                   (Gen.watch_chunk ~seed:!seed (watch_probe_first + e) k))
        then go (k + 1)
      in
      go 0
    done

(* ------------------------------ output ------------------------------ *)

let json_num v = Printf.sprintf "%.12g" v

let metric_json (name, unit, v) =
  Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (json_num v) unit

let ms xs = List.map (fun x -> x *. 1e3) xs

let median_or_fail what = function
  | [] -> failwith (Printf.sprintf "no samples for %s" what)
  | xs -> Stats.median xs

let stats_num path j =
  let rec go j = function
    | [] -> ( match j with Wire.Num f -> f | _ -> 0.0)
    | k :: rest -> ( match Wire.member k j with Some j -> go j rest | None -> 0.0)
  in
  go j path

(* ------------------------------- main ------------------------------- *)

let usage () =
  prerr_endline
    "usage: bench.exe --workload repair-mix|serve-hot|watch-stream --seed N \
     --seconds S --trace 0|1 [--tml PATH] [--commit SHA] [--out DIR]";
  exit 2

let parse_args () =
  let rec go = function
    | "--workload" :: v :: rest -> workload := v; go rest
    | "--seed" :: v :: rest -> seed := int_of_string v; go rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; go rest
    | "--trace" :: v :: rest -> trace := v = "1"; go rest
    | "--tml" :: v :: rest -> tml := v; go rest
    | "--commit" :: v :: rest -> commit := v; go rest
    | "--out" :: v :: rest -> out_dir := v; go rest
    | [] -> ()
    | _ -> usage ()
  in
  (try go (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if not (List.mem !workload [ "repair-mix"; "serve-hot"; "watch-stream" ]) then usage ();
  if !seconds <= 0.0 then usage ()

let () =
  parse_args ();
  let nproc = Domain.recommended_domain_count () in
  if max_connections > nproc then begin
    Printf.eprintf "refusing to open %d load connections on %d processor(s)\n" max_connections
      nproc;
    exit 2
  end;
  if not (Sys.file_exists !tml) then begin
    Printf.eprintf "server binary %s not found (build it first)\n" !tml;
    exit 2
  end;
  (try Unix.mkdir !out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  at_exit Serve.stop_all;
  (* a terminated run still stops its servers *)
  Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> exit 1));
  let setup_cycles () =
    List.init setup_samples (fun _ ->
        let s, wall, cpu = Serve.start ~tml:!tml ~dir:!out_dir in
        (* it has served one ping: nothing to drain *)
        Serve.stop ~kill:true s;
        (wall, cpu))
  in
  Calib.measure ();
  let setups = setup_cycles () in
  let load_connections = if !workload = "repair-mix" then 1 else 2 in
  let window_start = now () +. if !workload = "serve-hot" then warmup_s else 0.0 in
  let deadline = window_start +. !seconds in
  (* the traced pass keeps its first third untraced, for the overhead *)
  let trace_from = if !trace then window_start +. (!seconds /. 3.0) else infinity in
  let hard_deadline = deadline +. stall_s in
  if !trace then Replay.start ();
  let size = round_size () in
  (* one round: its set-up time, server CPU time, correct ops, peak RSS,
     Stats reply, and whether it did all its work before the deadline *)
  let round r =
    let server, setup_wall, setup_cpu = Serve.start ~tml:!tml ~dir:!out_dir in
    current_server := Some server;
    let ok0 = !window_ok in
    let cpu0 = Serve.cpu_s server in
    let first = r * size and last = (r + 1) * size in
    let complete =
      with_conns ~n:load_connections server.Serve.sock (fun conns ->
          let complete =
            match (!workload, conns) with
            | "repair-mix", [ c ] -> repair_mix ~first ~last ~deadline ~trace_from c
            | "serve-hot", [ a; b ] ->
              serve_hot ~window_start ~deadline ~trace_from a b;
              fun () -> false
            | _, [ a; b ] ->
              let started () =
                List.length (List.filter (fun ep -> ep.e >= first) !episodes)
              in
              episode_loop ~first
                ~stop:(fun () -> now () >= deadline || started () >= size)
                ~in_window:(fun () -> true) ~trace_from a b;
              fun () -> started () >= size
            | _ -> assert false
          in
          Loadgen.run ~hard_deadline conns;
          complete ())
    in
    let cpu0 = if !workload = "serve-hot" then !window_cpu_start else cpu0 in
    let cpu = Serve.cpu_s server -. cpu0 in
    let rss = Serve.peak_rss_mb server in
    let stats = Client.with_client ~timeout_s:30.0 (`Unix server.Serve.sock) Client.stats in
    Serve.stop server;
    { setup = (setup_wall, setup_cpu); cpu_s = cpu; ok_ops = !window_ok - ok0; rss_mb = rss; stats; complete }
  in
  let rec rounds r acc =
    Calib.measure ();
    let res = round r in
    if (not !trace) && r < probe_pieces then probe_piece r;
    if res.complete && now () < deadline then rounds (r + 1) (res :: acc)
    else List.rev (res :: acc)
  in
  let rounds = rounds 0 [] in
  (* the oracle's references run without a runtime, as [Job.run] alone *)
  Replay.shutdown ();
  let elapsed = !window_end -. window_start in
  let window_cpu = List.fold_left (fun acc r -> acc +. r.cpu_s) 0.0 rounds in
  (* throughput and RSS over the complete rounds, which did the same
     work: the cut last round holds a random part of it (a block holds
     one reward repair, which is half of its CPU time) *)
  let complete = match List.filter (fun r -> r.complete) rounds with [] -> rounds | rs -> rs in
  let ok_per_cpu =
    float_of_int (List.fold_left (fun acc r -> acc + r.ok_ops) 0 complete)
    /. List.fold_left (fun acc r -> acc +. r.cpu_s) 0.0 complete
  in
  let rss_mb = Stats.median (List.map (fun r -> r.rss_mb) complete) in
  let complete_rounds = List.length (List.filter (fun r -> r.complete) rounds) in
  let stats_all = List.map (fun r -> r.stats) rounds in
  let stats = List.hd (List.rev stats_all) in
  let stats_sum path = List.fold_left (fun acc st -> acc +. stats_num path st) 0.0 stats_all in
  let stats_max path = List.fold_left (fun acc st -> Float.max acc (stats_num path st)) 0.0 stats_all in
  if not !trace then
    for piece = List.length rounds to probe_pieces - 1 do
      probe_piece piece
    done;
  let setups = setups @ List.map (fun r -> r.setup) rounds @ !probe_setups in
  (* the oracle, after the timed window *)
  List.iter (fun f -> f ()) (List.rev !deferred);
  List.iter check_episode !episodes;
  let failed = Hashtbl.fold (fun _ n acc -> acc + n) reasons 0 in
  let timed = !latencies in
  let tail_p = if !workload = "repair-mix" then 90.0 else 99.0 in
  let wall_tail =
    Stats.sliced_tail ~start:window_start ~stop:!window_end
      (List.map (fun (t0, rtt) -> (t0, rtt *. 1e3)) timed)
      tail_p
  in
  (* every successful op of a kind: a workload's own traffic, or its
     probe's for the kinds the workload does not send *)
  let kind_ops k = List.filter (fun o -> o.failure = None && o.kind = k) !records in
  let kind_wall k = ms (List.map (fun o -> o.t1 -. o.t0) (kind_ops k)) in
  let kind_cpu k = ms (List.map (fun o -> o.cpu) (kind_ops k)) in
  let pushes ev = List.filter_map (fun ep -> push_latency ep ev) !episodes in
  let push_wall ev = ms (List.map fst (pushes ev)) in
  let push_cpu ev = ms (List.map snd (pushes ev)) in
  (* the gated figures: median server CPU times, by name *)
  let cpu_samples =
    [
      ("append_ms", kind_cpu "append");
      ("model_repair_ms", kind_cpu "model-repair");
      ("data_repair_ms", kind_cpu "data-repair");
      ("reward_repair_ms", kind_cpu "reward-repair");
      ("detect_ms", push_cpu "violation");
      ("repair_notify_ms", push_cpu "repair");
    ]
  in
  let opt_json = function Some v -> json_num v | None -> "null" in
  let median_opt = function [] -> None | xs -> Some (Stats.median xs) in
  let wall =
    [
      ("setup_s", Some (Stats.median (List.map fst setups)));
      ("req_per_s", Some (float_of_int !window_ok /. elapsed));
      ("p50_ms", median_opt (ms (List.map snd timed)));
      ("tail_ms", wall_tail);
      ("model_repair_p50_ms", median_opt (kind_wall "model-repair"));
      ("data_repair_p50_ms", median_opt (kind_wall "data-repair"));
      ("reward_repair_p50_ms", median_opt (kind_wall "reward-repair"));
      ("detect_p50_ms", median_opt (push_wall "violation"));
      ("repair_notify_p50_ms", median_opt (push_wall "repair"));
    ]
  in
  (* The host's speed in this run: the reference computation's median
     CPU time over samples spread across the run.  Scaling by
     [reference_s / calib] turns the server's CPU times into times at
     the reference speed. *)
  Calib.measure ();
  let calib = Stats.median !Calib.samples in
  let scale = Calib.reference_s /. calib in
  (* each CPU figure's sample count, its unscaled median and its
     highest supported tail *)
  let cpu_detail (name, xs) =
    let n = List.length xs in
    let raw = Printf.sprintf "%S: {\"n\": %d, \"median\": %s" name n (median_opt xs |> opt_json) in
    match Stats.tail_percentile n with
    | Some p when p > 50.0 ->
      Printf.sprintf "%s, \"tail_p\": %g, \"tail\": %s}" raw p
        (json_num (Stats.percentile (Stats.sorted_of_list xs) p))
    | _ -> raw ^ "}"
  in
  let server_json = Option.value ~default:Wire.Null (Wire.member "server" stats) in
  Printf.printf
    "{\"workload\": %S, \"seed\": %d, \"seconds\": %s, \"trace\": %b, \
     \"env\": {\"nproc\": %d, \"ocaml\": %S, \"commit\": %S, \
     \"server_workers\": %d, \"server_loops\": %d, \"load_connections\": %d}, \
     \"window_s\": %s, \"window_ops\": %d, \"window_cpu_s\": %s, \
     \"rounds\": %d, \"complete_rounds\": %d, \"round_size\": %d, \
     \"setup_samples\": %d, \"calib_ms\": %s, \"calib_samples\": %d, \"scale\": %s, \
     \"cpu\": {%s}, \"wall\": {%s}, \"wall_latency_samples\": %d, \
     \"wall_tail_percentile\": %g, \"attempted\": %d, \"failed\": %d, \"failures\": {%s}}\n"
    !workload !seed (json_num !seconds) !trace nproc Sys.ocaml_version !commit
    (int_of_float (stats_num [ "workers" ] stats))
    (int_of_float (stats_num [ "loops" ] server_json))
    load_connections (json_num elapsed) !window_ops (json_num window_cpu)
    (List.length rounds) complete_rounds size
    (List.length setups) (json_num (calib *. 1e3)) (List.length !Calib.samples) (json_num scale)
    (String.concat ", " (List.map cpu_detail cpu_samples))
    (String.concat ", " (List.map (fun (k, v) -> Printf.sprintf "%S: %s" k (opt_json v)) wall))
    (List.length timed) tail_p !attempted failed
    (String.concat ", "
       (Hashtbl.fold (fun k n acc -> Printf.sprintf "%S: %d" k n :: acc) reasons []));
  let metrics =
    if not !trace then
      [ ("setup_s", "s", scale *. Stats.median (List.map snd setups));
        ("req_per_cpu_s", "1/s", ok_per_cpu /. scale) ]
      @ List.map (fun (name, xs) -> (name, "ms", scale *. median_or_fail name xs)) cpu_samples
      @ [ ("server_rss_mb", "MB", rss_mb) ]
    else begin
      Replay.start ();
      fill_layers ();
      Replay.shutdown ();
      Span.dump (Filename.concat !out_dir (Printf.sprintf "spans-%s-%d.jsonl" !workload !seed));
      let self = Hashtbl.create 64 in
      List.iter
        (fun (s, t) ->
          Hashtbl.replace self s.Span.name
            (t :: Option.value ~default:[] (Hashtbl.find_opt self s.Span.name)))
        (Span.self_times (Span.all ()));
      let span name scale =
        scale *. median_or_fail name (Option.value ~default:[] (Hashtbl.find_opt self name))
      in
      let value name scale = scale *. median_or_fail name (Replay.value_samples name) in
      let cache name =
        let hits = stats_sum [ "caches"; name; "hits" ] in
        let lookups = hits +. stats_sum [ "caches"; name; "misses" ] in
        (hits, lookups, if lookups > 0.0 then hits /. lookups else 0.0)
      in
      let rh, rl, rr = cache "report" and eh, el, er = cache "elimination" in
      let cached, rechecks = Replay.recheck_counts () in
      let traced_ops, untraced_ops = List.partition (fun (t0, _) -> t0 >= trace_from) timed in
      let root_p50 = median_or_fail "traced ops" (ms (List.map snd traced_ops)) in
      let untraced_p50 = median_or_fail "untraced ops" (ms (List.map snd untraced_ops)) in
      let shed = Option.value ~default:0 (Hashtbl.find_opt reasons "overloaded") in
      [
        ("server.ping_rtt_us", "us", span "server.ping" 1e6);
        ("server.request_bytes", "bytes", value "server.request_bytes" 1.0);
        ("server.reply_bytes", "bytes", value "server.reply_bytes" 1.0);
        ("server.wire_encode_us", "us", span "server.wire_encode" 1e6);
        ("server.wire_decode_us", "us", span "server.wire_decode" 1e6);
        ("server.router_submit_us", "us", span "server.router_submit" 1e6);
        ("server.router_wait_us", "us", span "server.router_wait" 1e6);
        ("server.shed", "count", float_of_int shed);
        ("io.parse_us.check", "us", span "io.parse.check" 1e6);
        ("io.parse_us.model-repair", "us", span "io.parse.model-repair" 1e6);
        ("io.parse_us.data-repair", "us", span "io.parse.data-repair" 1e6);
        ("io.parse_us.reward-repair", "us", span "io.parse.reward-repair" 1e6);
        ("runtime.digest_us", "us", span "runtime.digest" 1e6);
        ("runtime.dispatch_us", "us", value "runtime.dispatch" 1e6);
        ("runtime.report_cache_hit_ratio", "ratio", rr);
        ("runtime.report_cache_hits", "count", rh);
        ("runtime.report_cache_lookups", "count", rl);
        ("runtime.elim_cache_hit_ratio", "ratio", er);
        ("runtime.elim_cache_hits", "count", eh);
        ("runtime.elim_cache_lookups", "count", el);
        ("runtime.max_queue_depth", "count", stats_max [ "queue"; "max_depth" ]);
        ("core.model_repair_ms", "ms", span "core.model_repair" 1e3);
        ("core.data_repair_ms", "ms", span "core.data_repair" 1e3);
        ("core.reward_repair_ms", "ms", span "core.reward_repair" 1e3);
        ("core.check_us", "us", span "core.check" 1e6);
        ("learn.parametric_mle_ms", "ms", span "learn.parametric_mle" 1e3);
        ("parametric.eliminate_ms", "ms", span "parametric.eliminate" 1e3);
        ( "polynomial.arena_eval_ns",
          "ns",
          span "polynomial.arena_eval" (1e9 /. float_of_int Replay.arena_evals) );
        ("optimize.solve_ms", "ms", value "optimize.solve" 1e3);
        ("mdp.value_iteration_ms", "ms", span "mdp.value_iteration" 1e3);
        ("modelcheck.check_us", "us", span "modelcheck.check" 1e6);
        ("stream.append_us", "us", span "stream.append" 1e6);
        ("stream.recheck_cached_us", "us", span "stream.recheck_cached" 1e6);
        ("stream.recheck_elim_us", "us", span "stream.recheck_elim" 1e6);
        ( "stream.cached_ratio",
          "ratio",
          if rechecks > 0 then float_of_int cached /. float_of_int rechecks else 0.0 );
        ("stream.cached_rechecks", "count", float_of_int cached);
        ("stream.rechecks", "count", float_of_int rechecks);
        ("stream.resubmit_bytes", "bytes", value "stream.resubmit_bytes" 1.0);
        ("stream.resubmit_us", "us", span "stream.resubmit" 1e6);
        ("trace.root_p50_ms", "ms", root_p50);
        ("trace.untraced_p50_ms", "ms", untraced_p50);
        ("trace.overhead_ratio", "ratio", root_p50 /. untraced_p50);
      ]
    end
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (failed = 0) !attempted failed
    (String.concat ", " (List.map metric_json metrics))
