(* The server under test: the shipped [tml serve] binary run as a child
   process on a Unix socket with its default flags. *)

type t = { pid : int; sock : string; clock : int; mutable live : bool }

external cpu_clock : int -> int = "tml_perfbench_cpu_clock"
external clock_seconds : int -> float = "tml_perfbench_clock_seconds"

(* Seconds the server's threads have spent on a CPU since it started. *)
let cpu_s t = clock_seconds t.clock

let started : t list ref = ref []
let counter = ref 0

(* SIGTERM drains the server; [~kill:true] skips the drain. *)
let stop ?(kill = false) t =
  if t.live then begin
    t.live <- false;
    (try Unix.kill t.pid (if kill then Sys.sigkill else Sys.sigterm)
     with Unix.Unix_error _ -> ());
    (* a clean drain takes one poll tick; give it a few seconds *)
    let deadline = Span.now () +. 10.0 in
    let rec reap () =
      match Unix.waitpid [ Unix.WNOHANG ] t.pid with
      | 0, _ when Span.now () < deadline ->
        Unix.sleepf 0.005;
        reap ()
      | 0, _ ->
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] t.pid : int * Unix.process_status)
      | _ -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
      | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
    in
    reap ();
    (* a drained server unlinks its socket; a killed one cannot *)
    try Sys.remove t.sock with Sys_error _ -> ()
  end

let stop_all () = List.iter (fun t -> stop t) !started

(* Spawn [tml serve] and return it with its set-up time, from the spawn
   until its first ping reply: the wall time, and the server's CPU time. *)
let start ~tml ~dir =
  incr counter;
  let sock = Printf.sprintf "%s/serve-%d-%d.sock" dir (Unix.getpid ()) !counter in
  let log =
    Unix.openfile (Filename.concat dir "serve.log")
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND ]
      0o644
  in
  let t0 = Span.now () in
  let pid =
    Unix.create_process tml [| tml; "serve"; "--socket"; sock |] Unix.stdin log log
  in
  Unix.close log;
  let t = { pid; sock; clock = cpu_clock pid; live = true } in
  started := t :: !started;
  let rec wait_up () =
    match Client.with_client ~timeout_s:5.0 (`Unix sock) Client.ping with
    | () -> (Span.now () -. t0, cpu_s t)
    | exception (Tml_error.Error _ as e) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ -> ()
       | _ ->
         t.live <- false;
         failwith "tml serve exited during start-up (see its log)");
      if Span.now () -. t0 > 30.0 then raise e;
      Unix.sleepf 0.0005;
      wait_up ()
  in
  let wall, cpu = wait_up () in
  (t, wall, cpu)

(* Peak resident set of the server process, in MB. *)
let peak_rss_mb t =
  let ic = open_in (Printf.sprintf "/proc/%d/status" t.pid) in
  let rec go () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
      Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
          float_of_int kb /. 1024.0)
    | _ -> go ()
    | exception End_of_file -> failwith "no VmHWM in /proc status"
  in
  Fun.protect ~finally:(fun () -> close_in ic) go

