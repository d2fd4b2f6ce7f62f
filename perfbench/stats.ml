(* Order statistics for latency samples. *)

(* The nearest rank of percentile [p] among [n] samples: the smallest
   rank covering p% of them.  The slack absorbs float error in p*n/100
   (99.9% of 10000 must be rank 9990, not 9991). *)
let rank n p = int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9))

(* Nearest-rank percentile [p] (0 < p <= 100) of an ascending array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  sorted.(max 0 (min (n - 1) (rank n p - 1)))

let sorted_of_list xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted_of_list xs) 50.0

(* Samples strictly above the nearest-rank [p]th percentile: the ones a
   tail figure at [p] rests on. *)
let beyond n p = n - rank n p

(* The tail rule: a percentile is reported only with at least ten samples
   beyond it.  [tail_percentile n] is the highest of the standard
   percentiles that [n] samples support. *)
let tail_candidates = [ 99.9; 99.0; 90.0; 50.0 ]

let tail_percentile n =
  List.find_opt (fun p -> beyond n p >= 10) tail_candidates

let supports n p = beyond n p >= 10

(* The sliced tail: the window is cut into as many equal time slices,
   up to [max_slices], as keep every slice supported at percentile [p];
   the figure is the median of the slices' percentiles.  A disturbance
   confined to one slice (a burst of CPU steal on a shared host) moves
   one slice's figure, not the median.  [samples] are (time, value)
   pairs; [None] when even the whole window does not support [p]. *)
let max_slices = 5

let sliced_tail ~start ~stop samples p =
  let slice k =
    let width = (stop -. start) /. float_of_int k in
    List.init k (fun i ->
        let lo = start +. (width *. float_of_int i) in
        List.filter_map
          (fun (t, v) ->
            if t >= lo && (t < lo +. width || (i = k - 1 && t <= stop)) then Some v else None)
          samples)
  in
  let rec go k =
    if k < 1 then None
    else
      let slices = slice k in
      if List.for_all (fun s -> supports (List.length s) p) slices then
        Some (median (List.map (fun s -> percentile (sorted_of_list s) p) slices))
      else go (k - 1)
  in
  go max_slices
