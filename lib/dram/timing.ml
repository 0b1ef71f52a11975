type t = { row_hit : int; row_empty : int; row_conflict : int; burst : int }

(* 2.5 CPU cycles per DDR3-1600 memory cycle; tCAS = tRCD = tRP = 11,
   tBURST = 4 memory cycles. *)
let cpu_per_mem = 2.5

let cycles mem = int_of_float (ceil (float_of_int mem *. cpu_per_mem))

let t_cas = cycles 11

let t_rcd = cycles 11

let t_rp = cycles 11

let t_burst = cycles 16

let ddr3_1600 =
  {
    row_hit = t_cas + t_burst;
    row_empty = t_rcd + t_cas + t_burst;
    row_conflict = t_rp + t_rcd + t_cas + t_burst;
    burst = t_burst;
  }
