let complete_row g ~v =
  let n = Vec.dim g in
  if Vec.is_zero g then invalid_arg "Unimodular.complete_row: zero vector";
  if Vec.content g <> 1 then
    invalid_arg "Unimodular.complete_row: not primitive";
  if v < 0 || v >= n then invalid_arg "Unimodular.complete_row: bad row index";
  (* Column-reduce the 1×n matrix [g] to (1, 0, …, 0): [g]·c = e₀ᵀ with c
     unimodular.  Then g = e₀ᵀ·c⁻¹, i.e. c⁻¹ is unimodular with first row
     g; swapping rows 0 and v puts g in position v. *)
  let h, c, rank = Gauss.column_echelon (Matrix.of_rows [ g ]) in
  assert (rank = 1 && h.(0).(0) = 1);
  let u = Matrix.inverse c in
  if v <> 0 then Matrix.swap_rows u 0 v;
  u
