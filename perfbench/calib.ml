(* A reference computation that tracks the host's speed.  On a shared
   host the speed of a CPU drifts: a neighbour on the same core or cache
   slowed the server's CPU time by a third within minutes, the wall
   clock and the CPU clock alike.  The benchmark times this fixed
   computation, which is the benchmark's own code and the OCaml standard
   library only, so no change to the program under test can move it,
   and scales the server's CPU times by its speed: they read as if the
   host ran at the reference speed. *)

external thread_seconds : unit -> float = "tml_perfbench_thread_seconds"

(* Sorting with the polymorphic compare, a pointer chase through a
   table larger than the L2 cache, and float arithmetic, on arrays built
   once: it allocates nothing, so the collector's state cannot change
   its cost. *)
let sorted = Array.make 16_384 0.0

let source =
  let rng = Gen.Rng.make 0 [ 99 ] in
  Array.init (Array.length sorted) (fun _ -> Gen.Rng.float rng)

let chain =
  let n = 1 lsl 17 in
  let rng = Gen.Rng.make 0 [ 98 ] in
  let perm = Array.init n Fun.id in
  Gen.Rng.shuffle rng perm;
  (* one cycle through every slot *)
  let next = Array.make n 0 in
  Array.iteri (fun k i -> next.(i) <- perm.((k + 1) mod n)) perm;
  next

let work () =
  Array.blit source 0 sorted 0 (Array.length sorted);
  Array.sort compare sorted;
  let i = ref 0 in
  for _ = 1 to 300_000 do
    i := chain.(!i)
  done;
  let x = ref 1.0 in
  for k = 1 to 300_000 do
    x := !x +. (sqrt (float_of_int k) /. !x)
  done;
  !i + int_of_float !x

(* The CPU seconds of one run of [work], on this thread. *)
let sample () =
  let t0 = thread_seconds () in
  ignore (Sys.opaque_identity (work ()) : int);
  thread_seconds () -. t0

(* [work]'s CPU seconds at the reference speed: about its median on the
   2-vCPU VM the benchmark was built on, in a calm phase (12-15 ms were
   seen there). *)
let reference_s = 0.012

let samples : float list ref = ref []

(* Time [work] a few times and keep the samples. *)
let measure () =
  for _ = 1 to 5 do
    samples := sample () :: !samples
  done
