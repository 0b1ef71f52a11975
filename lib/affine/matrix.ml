type t = int array array

let identity n = Array.init n (fun i -> Vec.unit n i)

let rows m = Array.length m

let cols m = if Array.length m = 0 then 0 else Array.length m.(0)

let of_rows = function
  | [] -> invalid_arg "Matrix.of_rows: empty"
  | r :: _ as rs ->
    let d = Vec.dim r in
    if not (List.for_all (fun v -> Vec.dim v = d) rs) then
      invalid_arg "Matrix.of_rows: ragged rows";
    Array.of_list (List.map Vec.copy rs)

let row m i = Vec.copy m.(i)

let col m j = Array.init (rows m) (fun i -> m.(i).(j))

let copy m = Array.map Vec.copy m

let mul a b =
  if cols a <> rows b then invalid_arg "Matrix.mul";
  let n = rows a and p = cols b and k = cols a in
  Array.init n (fun i ->
      Array.init p (fun j ->
          let s = ref 0 in
          for t = 0 to k - 1 do
            s := !s + (a.(i).(t) * b.(t).(j))
          done;
          !s))

let mul_vec m v =
  if cols m <> Vec.dim v then invalid_arg "Matrix.mul_vec";
  Array.init (rows m) (fun i -> Vec.dot m.(i) v)

let drop_col m j =
  let c = cols m in
  if j < 0 || j >= c then invalid_arg "Matrix.drop_col";
  Array.map
    (fun r -> Array.init (c - 1) (fun t -> if t < j then r.(t) else r.(t + 1)))
    m

let equal a b = a = b

(* Bareiss fraction-free Gaussian elimination: all intermediate divisions are
   exact, so the computation stays in the integers. *)
let det m =
  let n = rows m in
  if n <> cols m then invalid_arg "Matrix.det: not square";
  if n = 0 then 1
  else begin
    let a = copy m in
    let sign = ref 1 in
    let prev = ref 1 in
    let singular = ref false in
    (try
       for k = 0 to n - 2 do
         if a.(k).(k) = 0 then begin
           (* find a pivot row below *)
           let p = ref (-1) in
           for i = k + 1 to n - 1 do
             if !p < 0 && a.(i).(k) <> 0 then p := i
           done;
           if !p < 0 then begin
             singular := true;
             raise Exit
           end;
           let tmp = a.(k) in
           a.(k) <- a.(!p);
           a.(!p) <- tmp;
           sign := - !sign
         end;
         for i = k + 1 to n - 1 do
           for j = k + 1 to n - 1 do
             a.(i).(j) <-
               ((a.(i).(j) * a.(k).(k)) - (a.(i).(k) * a.(k).(j))) / !prev
           done;
           a.(i).(k) <- 0
         done;
         prev := a.(k).(k)
       done
     with Exit -> ());
    if !singular then 0 else !sign * a.(n - 1).(n - 1)
  end

let is_unimodular m = rows m = cols m && abs (det m) = 1

(* Minor with row i and column j removed. *)
let minor m i j =
  let n = rows m in
  Array.init (n - 1) (fun r ->
      Array.init (n - 1) (fun c ->
          m.(if r < i then r else r + 1).(if c < j then c else c + 1)))

let inverse m =
  let n = rows m in
  if n <> cols m then invalid_arg "Matrix.inverse: not square";
  let d = det m in
  if abs d <> 1 then invalid_arg "Matrix.inverse: not unimodular";
  (* adjugate / det; det = ±1 so the inverse is integral *)
  Array.init n (fun i ->
      Array.init n (fun j ->
          let sgn = if (i + j) mod 2 = 0 then 1 else -1 in
          sgn * det (minor m j i) * d))

let swap_rows m i j =
  let tmp = m.(i) in
  m.(i) <- m.(j);
  m.(j) <- tmp

let pp ppf m =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf "@,")
       Vec.pp)
    (Array.to_list m)
