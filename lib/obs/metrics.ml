type counter = { c_name : string; mutable c_value : int }

type gauge = { g_name : string; mutable g_value : float }

let max_log2_buckets = 63

type histogram = {
  h_name : string;
  h_counts : int array;
  mutable h_sum : int;
  mutable h_total : int;
}

type metric = Counter of counter | Gauge of gauge | Histogram of histogram

type registry = { tbl : (string, metric) Hashtbl.t }

type hist_snapshot = {
  counts : int array;
  sum : int;
  total : int;
}

type snapshot = {
  counters : (string * int) list;
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

let create () = { tbl = Hashtbl.create 32 }

let counter reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (Counter c) -> c
  | Some _ -> invalid_arg ("Metrics.counter: " ^ name ^ " is not a counter")
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.replace reg.tbl name (Counter c);
    c

let gauge reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (Gauge g) -> g
  | Some _ -> invalid_arg ("Metrics.gauge: " ^ name ^ " is not a gauge")
  | None ->
    let g = { g_name = name; g_value = 0. } in
    Hashtbl.replace reg.tbl name (Gauge g);
    g

let histogram reg name =
  match Hashtbl.find_opt reg.tbl name with
  | Some (Histogram h) -> Ok h
  | Some _ -> Error ("Metrics.histogram: " ^ name ^ " is not a histogram")
  | None ->
    let h =
      {
        h_name = name;
        h_counts = Array.make max_log2_buckets 0;
        h_sum = 0;
        h_total = 0;
      }
    in
    Hashtbl.replace reg.tbl name (Histogram h);
    Ok h

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let value c = c.c_value

let set g v = g.g_value <- v

let set_max g v = if v > g.g_value then g.g_value <- v

let gauge_value g = g.g_value

(* floor(log2 v) in O(1) via the number of leading zeros *)
let log2_floor v =
  let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
  go v 0

let bucket_index v =
  let v = Int.max 0 v in
  if v = 0 then 0 else Int.min (max_log2_buckets - 1) (log2_floor v + 1)

(* bucket 0 = {0}; bucket i>=1 = [2^(i-1), 2^i); the last bucket is
   open-ended (its lower bound still fits: 2^61 <= max_int) *)
let bucket_bounds i =
  if i = 0 then (0, 1)
  else if i >= max_log2_buckets - 1 then (1 lsl (max_log2_buckets - 2), max_int)
  else (1 lsl (i - 1), 1 lsl i)

let observe h v =
  let v = Int.max 0 v in
  let i = bucket_index v in
  h.h_counts.(i) <- h.h_counts.(i) + 1;
  h.h_sum <- h.h_sum + v;
  h.h_total <- h.h_total + 1

let hist_count h = h.h_total

let hist_sum h = h.h_sum

let snapshot reg =
  let cs = ref [] and gs = ref [] and hs = ref [] in
  Hashtbl.iter
    (fun name -> function
      | Counter c -> cs := (name, c.c_value) :: !cs
      | Gauge g -> gs := (name, g.g_value) :: !gs
      | Histogram h ->
        hs :=
          ( name,
            {
              counts = Array.copy h.h_counts;
              sum = h.h_sum;
              total = h.h_total;
            } )
          :: !hs)
    reg.tbl;
  let by_name (a, _) (b, _) = String.compare a b in
  {
    counters = List.sort by_name !cs;
    gauges = List.sort by_name !gs;
    histograms = List.sort by_name !hs;
  }

(* merge two sorted assoc lists, combining values under equal keys *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
    let c = String.compare ka kb in
    if c = 0 then (ka, combine ka va vb) :: merge_assoc combine ta tb
    else if c < 0 then (ka, va) :: merge_assoc combine ta b
    else (kb, vb) :: merge_assoc combine a tb

let merge_hist _ a b =
  {
    counts = Array.mapi (fun i v -> v + b.counts.(i)) a.counts;
    sum = a.sum + b.sum;
    total = a.total + b.total;
  }

let merge a b =
  {
    counters = merge_assoc (fun _ x y -> x + y) a.counters b.counters;
    gauges = merge_assoc (fun _ x y -> Float.max x y) a.gauges b.gauges;
    histograms = merge_assoc merge_hist a.histograms b.histograms;
  }

let merge_into ~into src =
  Hashtbl.iter
    (fun name -> function
      | Counter c -> add (counter into name) c.c_value
      | Gauge g -> set_max (gauge into name) g.g_value
      | Histogram h -> (
        (* merge_into keeps its documented raise: a name registered as
           two kinds of metric is a programming error, not an input
           error *)
        match histogram into name with
        | Error e -> invalid_arg e
        | Ok dst ->
          Array.iteri
            (fun i v -> dst.h_counts.(i) <- dst.h_counts.(i) + v)
            h.h_counts;
          dst.h_sum <- dst.h_sum + h.h_sum;
          dst.h_total <- dst.h_total + h.h_total))
    src.tbl

let hist_to_json (h : hist_snapshot) =
  (* trim trailing empty buckets so the export stays compact *)
  let last = ref (-1) in
  Array.iteri (fun i v -> if v > 0 then last := i) h.counts;
  let counts = Array.sub h.counts 0 (!last + 1) in
  Json.obj
    [
      ("kind", Json.String "log2");
      ("counts", Json.int_array counts);
      ("sum", Json.Int h.sum);
      ("total", Json.Int h.total);
    ]

let to_json (s : snapshot) =
  Json.obj
    [
      ("counters", Json.Obj (List.map (fun (k, v) -> (k, Json.Int v)) s.counters));
      ("gauges", Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) s.gauges));
      ( "histograms",
        Json.Obj (List.map (fun (k, h) -> (k, hist_to_json h)) s.histograms) );
    ]

(* --- decoding (the sweep aggregator re-reads per-job stats files) --- *)

let ( let* ) = Result.bind

module D = Json.Decode

(* machine-written: unknown keys are ignored *)
let hist_of_json name j =
  let* () =
    D.field "kind"
      (fun _ -> function
        | Json.String "log2" -> Ok ()
        | _ -> Error (Printf.sprintf "histogram %s: kind must be \"log2\"" name))
      j
  in
  let* counts = D.field "counts" (D.list D.int) j in
  if List.length counts > max_log2_buckets then
    Error (name ^ " has more counts than buckets")
  else begin
    (* the encoder trims trailing empty buckets; restore the full width *)
    let full = Array.make max_log2_buckets 0 in
    List.iteri (fun i v -> full.(i) <- v) counts;
    let* sum = D.field "sum" D.int j in
    let* total = D.field "total" D.int j in
    Ok { counts = full; sum; total }
  end

let snapshot_of_json = function
  | Json.Obj _ as j ->
    let section k decode = D.field ~default:[] k (D.assoc decode) j in
    let by_name (a, _) (b, _) = String.compare a b in
    Result.map_error (fun e -> "Metrics.snapshot_of_json: " ^ e)
    @@
    let* counters = section "counters" D.int in
    let* gauges = section "gauges" D.float in
    let* histograms = section "histograms" hist_of_json in
    Ok
      {
        counters = List.sort by_name counters;
        gauges = List.sort by_name gauges;
        histograms = List.sort by_name histograms;
      }
  | _ -> Error "Metrics.snapshot_of_json: snapshot must be an object"
