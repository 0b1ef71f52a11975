(* Tiled-GEMM workload family: C += A·B with the classic strip-over-rows
   parallelization and (jj,kk) tiling.  Unlike the fixed 13-app suite
   this is a generator — problem size, tile size and strip count are
   knobs — so the same kernel can be shaped to a flat mesh or to a
   chiplet grid (strips = chiplets × threads-per-chiplet).  Strip [s]
   owns rows [s·R .. s·R+R-1] of A and C (R = N/P): the init nest
   first-touches them in-strip and the measured nest carries the strip
   index in the row subscript, so both the first-touch policy and the
   compiler's Data-to-MC mapping can localize A and C.  B is read in
   full by every strip — the traffic no mapping can remove. *)

let source ~n ~tile ~strips =
  Printf.sprintf
    {|param N = %d;
param T = %d;
param P = %d;
param R = %d;
param NT = %d;
array A[N][N];
array B[N][N];
array C[N][N];
// strip s first-touches its own rows; every strip later reads all of B
parfor s = 0 to P-1 {
  for r = 0 to R-1 {
    for j = 0 to N-1 {
      A[R*s+r][j] = s + j;
      B[R*s+r][j] = s - j;
      C[R*s+r][j] = 0;
    }
  }
}
// tiled GEMM over (jj,kk) tiles of T x T, rows strip-parallel
parfor s = 0 to P-1 {
  for r = 0 to R-1 {
    for jj = 0 to NT-1 {
      for kk = 0 to NT-1 {
        for k = 0 to T-1 {
          for j = 0 to T-1 {
            C[R*s+r][T*jj+j] = C[R*s+r][T*jj+j] + A[R*s+r][T*kk+k]*B[T*kk+k][T*jj+j];
          }
        }
      }
    }
  }
}
|}
    n tile strips (n / strips) (n / tile)

(* default knobs: N=64 (with 8-byte elements each matrix is 32 KB, past
   the scaled private L2), 8x8 tiles, 64 strips (one per core of the 8x8
   presets) *)
let make_result ~name ?(n = 64) ?(tile = 8) ?(strips = 64) () =
  if n <= 0 then Error (Printf.sprintf "gemm: problem size N=%d must be positive" n)
  else if tile <= 0 || n mod tile <> 0 then
    Error (Printf.sprintf "gemm: tile size %d must divide N=%d" tile n)
  else if strips <= 0 || n mod strips <> 0 then
    Error (Printf.sprintf "gemm: strip count %d must divide N=%d" strips n)
  else
    Ok
      (App.make ~name
         ~description:
           (Printf.sprintf
              "tiled GEMM: C += A*B, N=%d, %dx%d tiles, %d row strips" n tile
              tile strips)
         ~first_touch_friendly:true ~warmup_nests:1
         (source ~n ~tile ~strips))

(* "gemm" or "gemm-n<N>t<T>[p<P>]".  [None] when the name is not in the
   family at all; [Some (Error _)] when it is but the knobs are bad. *)
let of_name name =
  if name = "gemm" then Some (make_result ~name ())
  else
    match String.length name with
    | len when len > 5 && String.sub name 0 5 = "gemm-" -> (
      let spec = String.sub name 5 (len - 5) in
      let parse () =
        try
          Scanf.sscanf spec "n%dt%dp%d%!" (fun n tile strips ->
              Some (make_result ~name ~n ~tile ~strips ()))
        with Scanf.Scan_failure _ | Failure _ | End_of_file -> (
          try
            Scanf.sscanf spec "n%dt%d%!" (fun n tile ->
                Some (make_result ~name ~n ~tile ()))
          with Scanf.Scan_failure _ | Failure _ | End_of_file ->
            Some
              (Error
                 (Printf.sprintf
                    "gemm: cannot parse %S (expected gemm-n<N>t<T>[p<P>])"
                    name)))
      in
      parse ())
    | _ -> None
