(* Seeded input generators for the three workloads.  Every input is a
   pure function of the seed (and an op index), rendered to the wire's
   textual form, so the server sees only generated requests and the same
   seed gives byte-identical inputs.  The generator owns its random
   stream (splitmix64) so that program changes to [Prng] cannot move the
   benchmark's inputs. *)

module Rng = struct
  type t = { mutable s : int64 }

  let golden = 0x9E3779B97F4A7C15L

  let mix z =
    let open Int64 in
    let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
    let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
    logxor z (shift_right_logical z 31)

  (* an independent stream per (seed, path...) *)
  let make seed path =
    { s = List.fold_left (fun acc k -> mix (Int64.add acc (Int64.of_int k))) (mix (Int64.of_int seed)) path }

  let next t =
    t.s <- Int64.add t.s golden;
    mix t.s

  let float t = Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1p-53
  let int t n = min (n - 1) (int_of_float (float t *. float_of_int n))

  let shuffle t a =
    for i = Array.length a - 1 downto 1 do
      let j = int t (i + 1) in
      let x = a.(i) in
      a.(i) <- a.(j);
      a.(j) <- x
    done
end

(* ------------------------------ WSN ------------------------------ *)

(* The paper's 3x3 sensor grid: state 0 is the station (delivered), the
   query starts at the far corner 8, and every other state costs one
   forwarding attempt. *)
let wsn_side = 3
let wsn_states = wsn_side * wsn_side
let wsn_init = wsn_states - 1
let wsn_labels = [ ("delivered", [ 0 ]) ]
let wsn_rewards = List.init wsn_states (fun s -> if s = 0 then 0.0 else 1.0)

(* neighbours one step closer to the station: up, then left *)
let wsn_targets id =
  let row = id / wsn_side and col = id mod wsn_side in
  (if row > 0 then [ id - wsn_side ] else []) @ if col > 0 then [ id - 1 ] else []

let field_station id =
  let row = id / wsn_side in
  row = 0 || row = wsn_side - 1

let wsn_model ~ignore_fs ~ignore_other =
  Dtmc_io.to_string
    (Wsn.chain
       { Wsn.n = wsn_side; ignore_field_station = ignore_fs; ignore_other })

let default_model =
  lazy
    (wsn_model ~ignore_fs:Wsn.default_params.Wsn.ignore_field_station
       ~ignore_other:Wsn.default_params.Wsn.ignore_other)

let reward_phi bound = Printf.sprintf "R<=%.5f [ F delivered ]" bound

(* Single-step observations of message forwarding (the paper's Data
   Repair data), drawn with the given ignore probabilities and grouped
   as success / fail_field_station / fail_other, in Trace_io text. *)
let observations rng ~ignore_fs ~ignore_other count =
  let buf = Buffer.create (count * 8) in
  let group = ref "" in
  for _ = 1 to count do
    let id = 1 + Rng.int rng (wsn_states - 1) in
    let ts = wsn_targets id in
    let t = List.nth ts (Rng.int rng (List.length ts)) in
    let fs = field_station t in
    let g = if fs then ignore_fs else ignore_other in
    let name, dst =
      if Rng.float rng < g then
        ((if fs then "fail_field_station" else "fail_other"), id)
      else ("success", t)
    in
    if name <> !group then begin
      group := name;
      Printf.bprintf buf "group %s\n" name
    end;
    Printf.bprintf buf "%d %d\n" id dst
  done;
  Buffer.contents buf

(* Model Repair controllable-edge sets: the sources whose outgoing edges
   get the paper's correction terms (p on edges into field/station
   nodes, q on the others).  Distinct sets are distinct parametric
   chains, so each first use misses the elimination cache. *)
let edge_sets =
  [|
    [ 1; 2; 3; 4; 5; 6; 7; 8 ];
    [ 5; 7; 8 ];
    [ 2; 4; 6; 8 ];
    [ 1; 3; 5; 7 ];
    [ 4; 5; 7; 8 ];
    [ 3; 6; 7; 8 ];
  |]

let coeff w = if w = 1.0 then "" else Printf.sprintf "%g*" w

let deltas sources =
  List.concat_map
    (fun id ->
      let ts = wsn_targets id in
      let w = 1.0 /. float_of_int (List.length ts) in
      let var t = if field_station t then "p" else "q" in
      let moves =
        List.map (fun t -> Printf.sprintf "%d,%d,+%s%s" id t (coeff w) (var t)) ts
      in
      let stay =
        String.concat ""
          (List.map (fun t -> Printf.sprintf "-%s%s" (coeff w) (var t)) ts)
      in
      Printf.sprintf "%d,%d,%s" id id stay :: moves)
    sources

let variables sources =
  let used v = List.exists (fun d -> String.contains d v) (deltas sources) in
  List.filter_map
    (fun v -> if used v.[0] then Some (v ^ ":0:0.1") else None)
    [ "p"; "q" ]

(* ------------------------------ car ------------------------------ *)

let car_mdp = lazy (Mdp_io.to_string (Car.mdp ()))

(* ---------------------------- repair-mix ---------------------------- *)

type kind = Model | Data | Check | Reward

(* A request slot: its kind and a variant that fixes the costly part of
   its input (edge set and bound).  The seed sets everything else: the
   order, the data traces, and the low digits of bounds and margins.
   Each block of 25 requests holds the same slots, 11 model repairs, 9
   data repairs, 4 checks and 1 reward repair (44/36/16/4% by count), so
   every seed sees the same mix of costs and runs differ only in order
   and noise.  A reward repair holds the single worker for about a
   second, and the other connection's request waits behind it, so about
   twice the reward share of requests is slow: at 4% that tail stays
   clear of the 90th percentile instead of straddling it. *)
type slot = kind * int

let block : slot array =
  Array.concat
    [
      Array.init 11 (fun v -> (Model, v));
      Array.init 9 (fun v -> (Data, v));
      Array.init 4 (fun v -> (Check, v));
      [| (Reward, 0) |];
    ]

(* WSN E[attempts] is about 47: every model and check bound below it is
   violated; the data bounds sit below the learned chain's value. *)
let model_bounds = [| 24; 27; 30; 33; 36; 39; 42; 44; 26; 29; 35 |]
let data_bounds = [| 19; 21; 23; 25; 27; 29; 31; 34; 37 |]
let check_bounds = [| 35; 42; 47; 60 |]
let data_observations = 3000

(* Every bound carries the op index in its low digits, so every digest
   is fresh and the report cache never hits. *)
let tag i = float_of_int (i + 1) *. 1e-5

let mix_slot ~seed i =
  let b = Array.copy block in
  Rng.shuffle (Rng.make seed [ 1; i / Array.length block ]) b;
  b.(i mod Array.length block)

let request rng ((kind, v) : slot) i =
  match kind with
  | Model ->
    let sources = edge_sets.(v mod Array.length edge_sets) in
    Wire.Model_repair_req
      {
        model = Lazy.force default_model;
        phi = reward_phi (float_of_int model_bounds.(v) +. tag i);
        variables = variables sources;
        deltas = deltas sources;
        starts = 4;
        backend = "nlp";
      }
  | Data ->
    let traces =
      observations rng ~ignore_fs:Wsn.default_params.Wsn.ignore_field_station
        ~ignore_other:Wsn.default_params.Wsn.ignore_other data_observations
    in
    Wire.Data_repair_req
      {
        states = wsn_states;
        init = wsn_init;
        labels = wsn_labels;
        rewards = Some wsn_rewards;
        phi = reward_phi (float_of_int data_bounds.(v) +. tag i);
        traces;
        max_drop = 0.999;
        pinned = [ "success" ];
        starts = 2;
        backend = "nlp";
      }
  | Check ->
    Wire.Check_req
      {
        model = Lazy.force default_model;
        phi = reward_phi (float_of_int check_bounds.(v) +. tag i);
      }
  | Reward ->
    (* the paper's constraint Q(S1, left) > Q(S1, fwd), seeded margin *)
    Wire.Reward_repair_req
      {
        mdp = Lazy.force car_mdp;
        theta = Array.to_list Car.paper_learned_theta;
        constraints = [ (1, "left", "fwd", 1e-3 *. (1.0 +. (0.1 *. Rng.float rng))) ];
        gamma = 0.9;
        starts = 2;
      }

let mix_request ~seed i = request (Rng.make seed [ 2; i ]) (mix_slot ~seed i) i

(* The repair probe: per-kind figures for the workloads whose own
   traffic has no repairs, measured one request at a time in eight
   pieces spread over the run.  Each piece holds 6 model repairs, 5 data
   repairs and 1 reward repair, cycling through the variants: 48 model,
   40 data and 8 reward repairs. *)
let probe_slots : slot array =
  Array.concat
    (List.init 8 (fun r ->
         Array.concat
           [
             Array.init 6 (fun k -> (Model, ((6 * r) + k) mod 11));
             Array.init 5 (fun k -> (Data, ((5 * r) + k) mod 9));
             [| (Reward, 0) |];
           ]))

let probe_request ~seed k = request (Rng.make seed [ 6; k ]) probe_slots.(k) k

(* ---------------------------- serve-hot ---------------------------- *)

let hot_pool_size = 1024
let hot_zipf_s = 1.0

(* 1024 distinct check jobs: 16 chains (ignore probabilities on a grid)
   times 64 bounds. *)
let hot_pool ~seed =
  let pool =
    Array.init hot_pool_size (fun j ->
        let c = j mod 16 and b = j / 16 in
        Wire.Check_req
          {
            model =
              wsn_model
                ~ignore_fs:(0.80 +. (0.02 *. float_of_int (c mod 4)))
                ~ignore_other:(0.86 +. (0.02 *. float_of_int (c / 4)));
            phi = reward_phi (20.0 +. (0.5 *. float_of_int b));
          })
  in
  (* which job is popular is seeded *)
  Rng.shuffle (Rng.make seed [ 3 ]) pool;
  pool

let zipf_cdf =
  lazy
    (let w = Array.init hot_pool_size (fun r -> 1.0 /. (float_of_int (r + 1) ** hot_zipf_s)) in
     let total = Array.fold_left ( +. ) 0.0 w in
     let acc = ref 0.0 in
     Array.map (fun x -> acc := !acc +. (x /. total); !acc) w)

(* the pool index of op [i] on connection [conn] *)
let hot_pick ~seed ~conn i =
  let u = Rng.float (Rng.make seed [ 4; conn; i ]) in
  let cdf = Lazy.force zipf_cdf in
  let rec go lo hi = if lo >= hi then lo else
      let mid = (lo + hi) / 2 in if cdf.(mid) < u then go (mid + 1) hi else go lo mid in
  go 0 (hot_pool_size - 1)

(* --------------------------- watch-stream --------------------------- *)

let watch_bound = 20.0

let watch_spec =
  {
    Wire.states = wsn_states;
    init = wsn_init;
    labels = wsn_labels;
    rewards = Some wsn_rewards;
    phi = reward_phi watch_bound;
    max_drop = 0.999;
    pinned = [ "success" ];
    starts = 2;
    backend = "nlp";
  }

let chunk_obs = 25
let healthy_chunks = 6
let max_chunks = 200

(* Episode [e]: healthy chunks, then drifting chunks until the learned
   chain violates the bound.  A healthy chunk opens with one successful
   forward from every node, then samples low ignore probabilities
   (E[attempts] well under the bound), so the healthy phase satisfies
   the bound as the workload intends: without the opening successes a
   node seen only ignoring messages would make the learned chain's
   expected attempts infinite, a violation the repair cannot handle
   (see CHANGES.md).  Drifting chunks sample the calibrated WSN
   probabilities (E about 47).  Chunks are generated on demand up to
   [max_chunks]. *)
let watch_name ~seed e = Printf.sprintf "bench-%d-%d" seed e

let heartbeat =
  "group success\n"
  ^ String.concat ""
      (List.init (wsn_states - 1) (fun i ->
           let id = i + 1 in
           Printf.sprintf "%d %d\n" id (List.hd (wsn_targets id))))

let watch_chunk ~seed e k =
  let rng = Rng.make seed [ 5; e; k ] in
  if k < healthy_chunks then
    heartbeat
    ^ observations rng ~ignore_fs:0.55 ~ignore_other:0.6 (chunk_obs - (wsn_states - 1))
  else
    observations rng ~ignore_fs:Wsn.default_params.Wsn.ignore_field_station
      ~ignore_other:Wsn.default_params.Wsn.ignore_other chunk_obs
