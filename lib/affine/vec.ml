type t = int array

let zero n = Array.make n 0

let unit n i =
  if i < 0 || i >= n then invalid_arg "Vec.unit";
  let v = Array.make n 0 in
  v.(i) <- 1;
  v

let dim = Array.length

let of_list = Array.of_list

let copy = Array.copy

let check_dim a b name =
  if Array.length a <> Array.length b then invalid_arg name

let add a b =
  check_dim a b "Vec.add";
  Array.mapi (fun i x -> x + b.(i)) a

let sub a b =
  check_dim a b "Vec.sub";
  Array.mapi (fun i x -> x - b.(i)) a

let neg a = Array.map (fun x -> -x) a

let scale k a = Array.map (fun x -> k * x) a

let dot a b =
  check_dim a b "Vec.dot";
  let s = ref 0 in
  for i = 0 to Array.length a - 1 do
    s := !s + (a.(i) * b.(i))
  done;
  !s

let is_zero a = Array.for_all (fun x -> x = 0) a

let equal a b = a = b

let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

let content v = Array.fold_left (fun g x -> gcd g x) 0 v

let primitive v =
  let c = content v in
  if c = 0 then v
  else
    let v = Array.map (fun x -> x / c) v in
    (* Normalize sign: first nonzero component positive. *)
    let rec first_nonzero i =
      if i >= Array.length v then 0
      else if v.(i) <> 0 then v.(i)
      else first_nonzero (i + 1)
    in
    if first_nonzero 0 < 0 then neg v else v

let pp ppf v =
  Format.fprintf ppf "(%a)"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (Array.to_list v)

let to_string v = Format.asprintf "%a" pp v
