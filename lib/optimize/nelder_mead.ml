type result = {
  x : float array;
  f : float;
  iterations : int;
  converged : bool;
}

(* Standard coefficients: reflection 1, expansion 2, contraction 1/2,
   shrink 1/2. *)
let alpha = 1.0
let gamma = 2.0
let rho = 0.5
let sigma = 0.5

let minimize ?(max_iter = 5000) ?(tol = 1e-12) ?(initial_step = 0.1) f x0 =
  let n = Array.length x0 in
  if n = 0 then invalid_arg "Nelder_mead.minimize: empty start point";
  (* n+1 vertices *)
  let vertex i =
    if i = 0 then Array.copy x0
    else begin
      let v = Array.copy x0 in
      let j = i - 1 in
      let step =
        if Float.abs v.(j) > 1.0 then initial_step *. Float.abs v.(j)
        else initial_step
      in
      v.(j) <- v.(j) +. step;
      v
    end
  in
  let simplex = Array.init (n + 1) vertex in
  let values = Array.map f simplex in
  (* Work buffers, allocated once: the sort's index array and the
     permutation targets, the centroid, and two spare vertices that trade
     places with the worst vertex when a trial point is accepted. *)
  let idx = Array.make (n + 1) 0 in
  let s2 = Array.make (n + 1) simplex.(0) in
  let v2 = Array.make (n + 1) 0.0 in
  let c = Array.make n 0.0 in
  let trial = ref (Array.make n 0.0) in
  let spare = ref (Array.make n 0.0) in
  let by_value i j = Float.compare values.(i) values.(j) in
  let order () =
    for i = 0 to n do
      idx.(i) <- i
    done;
    Array.sort by_value idx;
    for k = 0 to n do
      s2.(k) <- simplex.(idx.(k));
      v2.(k) <- values.(idx.(k))
    done;
    Array.blit s2 0 simplex 0 (n + 1);
    Array.blit v2 0 values 0 (n + 1)
  in
  let centroid () =
    (* of all but the worst vertex *)
    Array.fill c 0 n 0.0;
    for i = 0 to n - 1 do
      for j = 0 to n - 1 do
        c.(j) <- c.(j) +. (simplex.(i).(j) /. float_of_int n)
      done
    done
  in
  let combine dst w coeff =
    for j = 0 to n - 1 do
      dst.(j) <- c.(j) +. (coeff *. (c.(j) -. w.(j)))
    done
  in
  (* make the buffer in [r] the worst vertex; the old worst becomes the
     buffer *)
  let accept r fv =
    let old = simplex.(n) in
    simplex.(n) <- !r;
    values.(n) <- fv;
    r := old
  in
  let iter = ref 0 in
  let converged = ref false in
  order ();
  while (not !converged) && !iter < max_iter do
    let spread = Float.abs (values.(n) -. values.(0)) in
    let size =
      let acc = ref 0.0 in
      for j = 0 to n - 1 do
        acc := Float.max !acc (Float.abs (simplex.(n).(j) -. simplex.(0).(j)))
      done;
      !acc
    in
    if spread < tol && size < sqrt tol then converged := true
    else begin
      centroid ();
      let worst = simplex.(n) in
      combine !trial worst alpha;
      let fr = f !trial in
      if fr < values.(0) then begin
        (* try expansion *)
        combine !spare worst gamma;
        let fe = f !spare in
        if fe < fr then accept spare fe else accept trial fr
      end
      else if fr < values.(n - 1) then accept trial fr
      else begin
        (* contraction (outside if fr better than worst, else inside) *)
        if fr < values.(n) then combine !spare worst (alpha *. rho)
        else combine !spare worst (-.rho);
        let fc = f !spare in
        if fc < Float.min fr values.(n) then accept spare fc
        else begin
          (* shrink toward the best vertex, in place *)
          let best = simplex.(0) in
          for i = 1 to n do
            let v = simplex.(i) in
            for j = 0 to n - 1 do
              v.(j) <- best.(j) +. (sigma *. (v.(j) -. best.(j)))
            done;
            values.(i) <- f v
          done
        end
      end;
      order ();
      incr iter
    end
  done;
  { x = Array.copy simplex.(0); f = values.(0); iterations = !iter; converged = !converged }
