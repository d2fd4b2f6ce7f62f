(* A single-threaded, event-driven load generator.  Every load connection is
   a small state machine: it sends a request (or a pipelined window of
   them), and the continuation turns the replies into its next step.  One
   [select] loop serves all connections, so the generator adds no lock
   hand-offs of its own to the latencies it measures: a reply is
   timestamped as soon as it is readable. *)

type step =
  | Send of Wire.request list * (Wire.response list -> step)
      (** write the frames; call the continuation with all replies *)
  | Park of (unit -> step option)
      (** wait, without a request in flight, until the guard yields *)
  | Done  (** the current operation is over: take the next one *)

type conn = {
  fd : Unix.file_descr;
  dec : Wire.Decoder.t;
  mutable next_id : int;
  mutable step : step;
  mutable waiting : int;
  mutable got : Wire.response list;
  mutable next : unit -> step;  (** the next operation; [Done]: none *)
  mutable idle : bool;
  mutable on_push : float -> Wire.notification -> unit;
}

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  {
    fd;
    dec = Wire.Decoder.create ();
    next_id = 0;
    step = Done;
    waiting = 0;
    got = [];
    next = (fun () -> Done);
    idle = true;
    on_push = (fun _ _ -> ());
  }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

let rec enter c s =
  c.step <- s;
  match s with
  | Send (reqs, _) ->
    c.idle <- false;
    c.waiting <- List.length reqs;
    c.got <- [];
    Wire.write_frames c.fd
      (List.map
         (fun r ->
           c.next_id <- c.next_id + 1;
           Wire.request_to_json ~id:c.next_id r)
         reqs)
  | Park f -> (
      c.idle <- false;
      match f () with Some s -> enter c s | None -> ())
  | Done ->
    (* one operation over: the connection takes its next one, or idles *)
    let s = c.next () in
    (match s with Done -> c.idle <- true | s -> enter c s)

(* Start [c] on its operation stream. *)
let start c next =
  c.next <- next;
  enter c Done

let on_response c resp =
  match c.step with
  | Send (_, k) ->
    c.got <- resp :: c.got;
    c.waiting <- c.waiting - 1;
    if c.waiting = 0 then enter c (k (List.rev c.got))
  | Park _ | Done -> failwith "loadgen: a reply with no request in flight"

exception Stalled

(* Serve every connection until all are idle.  [hard_deadline] bounds a
   stalled server. *)
let run ~hard_deadline conns =
  let rbuf = Bytes.create 65536 in
  let by_fd = List.map (fun c -> (c.fd, c)) conns in
  let rec drain c =
    match Wire.Decoder.next c.dec with
    | `Frame j ->
      if Wire.is_push j then c.on_push (Span.now ()) (Wire.notification_of_json j)
      else on_response c (snd (Wire.response_of_json j));
      drain c
    | `Await -> ()
    | `Oversized n -> failwith (Printf.sprintf "loadgen: oversized reply (%d bytes)" n)
  in
  while List.exists (fun c -> not c.idle) conns do
    List.iter
      (fun c ->
        match c.step with
        | Park f -> ( match f () with Some s -> enter c s | None -> ())
        | Send _ | Done -> ())
      conns;
    let parked = List.exists (fun c -> match c.step with Park _ -> true | _ -> false) conns in
    let readable =
      match Unix.select (List.map fst by_fd) [] [] (if parked then 0.001 else 0.1) with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
    in
    List.iter
      (fun fd ->
        let c = List.assq fd by_fd in
        match Unix.read fd rbuf 0 (Bytes.length rbuf) with
        | 0 -> failwith "loadgen: the server closed a load connection"
        | n ->
          Wire.Decoder.feed c.dec rbuf 0 n;
          drain c
        | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN), _, _) -> ())
      readable;
    if Span.now () > hard_deadline then raise Stalled
  done
