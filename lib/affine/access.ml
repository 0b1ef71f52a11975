type t = { matrix : Matrix.t; offset : Vec.t }

let make matrix offset =
  if Matrix.rows matrix <> Vec.dim offset then
    invalid_arg "Access.make: offset/matrix mismatch";
  { matrix; offset }

let rank r = Matrix.rows r.matrix

let depth r = Matrix.cols r.matrix

let apply r i = Vec.add (Matrix.mul_vec r.matrix i) r.offset

let submatrix r ~u = Matrix.drop_col r.matrix u

let transform u r =
  { matrix = Matrix.mul u r.matrix; offset = Matrix.mul_vec u r.offset }

let pp ppf r =
  Format.fprintf ppf "@[<v>A =@,%a@,o = %a@]" Matrix.pp r.matrix Vec.pp r.offset
