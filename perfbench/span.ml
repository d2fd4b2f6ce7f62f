(* An in-memory span recorder.  Spans are kept in memory while the
   benchmark runs and written out at the end; per-layer figures are
   derived from their self times. *)

type t = {
  id : int;
  parent : int;  (** 0 for a root span *)
  req : int;  (** the operation the span belongs to *)
  name : string;
  start : float;
  stop : float;
}

(* Seconds on the monotonic clock, at nanosecond resolution: the
   microsecond wall clock would quantize the shortest spans and round
   trips. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let spans : t list ref = ref []
let next_id = ref 0

let fresh_id () =
  incr next_id;
  !next_id

let add s = spans := s :: !spans

(* Run [f id] inside a span named [name]; [f] gets the span's id, to
   parent spans it opens itself. *)
let with_span ?(parent = 0) ~req name f =
  let id = fresh_id () in
  let start = now () in
  Fun.protect
    ~finally:(fun () ->
      add { id; parent; req; name; start; stop = now () })
    (fun () -> f id)

let all () = List.rev !spans

(* Total length of the union of [intervals] clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
    |> List.sort compare
  in
  let total, last =
    List.fold_left
      (fun (total, cur) (a, b) ->
        match cur with
        | None -> (total, Some (a, b))
        | Some (ca, cb) when a <= cb -> (total, Some (ca, Float.max cb b))
        | Some (ca, cb) -> (total +. (cb -. ca), Some (a, b)))
      (0.0, None) clipped
  in
  match last with None -> total | Some (a, b) -> total +. (b -. a)

(* Self time of every span: its duration minus the part of its interval
   that its children cover.  Returned as (span, self seconds). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace children s.parent
          ((s.start, s.stop)
          :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s ->
      let kids = Option.value ~default:[] (Hashtbl.find_opt children s.id) in
      (s, s.stop -. s.start -. covered ~lo:s.start ~hi:s.stop kids))
    spans

let to_json s =
  Printf.sprintf
    "{\"id\":%d,\"parent\":%d,\"req\":%d,\"name\":%S,\"start\":%.6f,\"end\":%.6f}"
    s.id s.parent s.req s.name s.start s.stop

let dump path =
  let oc = open_out path in
  List.iter (fun s -> output_string oc (to_json s ^ "\n")) (all ());
  close_out oc

(* Record a span whose interval was measured by the caller. *)
let record ?(parent = 0) ~req name start stop =
  let id = fresh_id () in
  add { id; parent; req; name; start; stop };
  id
