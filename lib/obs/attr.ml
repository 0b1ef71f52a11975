type site = { array : string; write : bool; phase : int; loc : string }

type t = {
  t_sites : site array;
  t_mcs : int;
  t_banks : int;
  t_max_hops : int;
  t_counts : int array;
  t_hops : int array;
  t_queue_counts : int array;
  t_queue_sum : int array;
  t_queue_total : int array;
  mutable t_total : int;
}

type snapshot = {
  sites : site array;
  mcs : int;
  banks : int;
  max_hops : int;
  counts : int array;
  hops : int array;
  queue_counts : int array;
  queue_sum : int array;
  queue_total : int array;
}

let queue_buckets = Metrics.max_log2_buckets

let create ~sites ~mcs ~banks ~max_hops =
  if mcs <= 0 || banks <= 0 || max_hops <= 0 then
    invalid_arg "Attr.create: platform shape must be positive";
  let rows = Array.length sites + 1 in
  {
    t_sites = Array.copy sites;
    t_mcs = mcs;
    t_banks = banks;
    t_max_hops = max_hops;
    t_counts = Array.make (rows * mcs * banks) 0;
    t_hops = Array.make (rows * (max_hops + 1)) 0;
    t_queue_counts = Array.make (rows * queue_buckets) 0;
    t_queue_sum = Array.make rows 0;
    t_queue_total = Array.make rows 0;
    t_total = 0;
  }

let create_like t =
  create ~sites:t.t_sites ~mcs:t.t_mcs ~banks:t.t_banks ~max_hops:t.t_max_hops

(* out-of-range site ids (untagged streams, foreign refs) clamp into the
   trailing unknown row so the cube total stays exhaustive *)
let row t site =
  let n = Array.length t.t_sites in
  if site < 0 || site >= n then n else site

let record t ~site ~mc ~bank ~hops =
  let s = row t site in
  let mc = if mc < 0 || mc >= t.t_mcs then 0 else mc in
  let bank = if bank < 0 || bank >= t.t_banks then 0 else bank in
  let i = (((s * t.t_mcs) + mc) * t.t_banks) + bank in
  t.t_counts.(i) <- t.t_counts.(i) + 1;
  let h = min (max 0 hops) t.t_max_hops in
  let j = (s * (t.t_max_hops + 1)) + h in
  t.t_hops.(j) <- t.t_hops.(j) + 1;
  t.t_total <- t.t_total + 1

let record_queue t ~site ~queue =
  let s = row t site in
  let q = max 0 queue in
  let b = Metrics.bucket_index q in
  let i = (s * queue_buckets) + b in
  t.t_queue_counts.(i) <- t.t_queue_counts.(i) + 1;
  t.t_queue_sum.(s) <- t.t_queue_sum.(s) + q;
  t.t_queue_total.(s) <- t.t_queue_total.(s) + 1

let snapshot t =
  {
    sites = Array.copy t.t_sites;
    mcs = t.t_mcs;
    banks = t.t_banks;
    max_hops = t.t_max_hops;
    counts = Array.copy t.t_counts;
    hops = Array.copy t.t_hops;
    queue_counts = Array.copy t.t_queue_counts;
    queue_sum = Array.copy t.t_queue_sum;
    queue_total = Array.copy t.t_queue_total;
  }

let site_equal (a : site) (b : site) =
  String.equal a.array b.array
  && a.write = b.write && a.phase = b.phase
  && String.equal a.loc b.loc

let absorb t (s : snapshot) =
  if
    t.t_mcs <> s.mcs || t.t_banks <> s.banks || t.t_max_hops <> s.max_hops
    || Array.length t.t_sites <> Array.length s.sites
  then Error "Attr.absorb: platform or site-table shapes differ"
  else if not (Array.for_all2 site_equal t.t_sites s.sites) then
    Error "Attr.absorb: site tables differ"
  else begin
    let add dst src = Array.iteri (fun i v -> dst.(i) <- dst.(i) + v) src in
    add t.t_counts s.counts;
    add t.t_hops s.hops;
    add t.t_queue_counts s.queue_counts;
    add t.t_queue_sum s.queue_sum;
    add t.t_queue_total s.queue_total;
    t.t_total <- t.t_total + Array.fold_left ( + ) 0 s.counts;
    Ok ()
  end

(* ---- snapshot readers ---- *)

let snap_total s = Array.fold_left ( + ) 0 s.counts

let site_count s i =
  let stride = s.mcs * s.banks in
  let base = i * stride in
  let acc = ref 0 in
  for k = base to base + stride - 1 do
    acc := !acc + s.counts.(k)
  done;
  !acc

let cell s ~site ~mc ~bank = s.counts.((((site * s.mcs) + mc) * s.banks) + bank)

let site_mc_count s ~site ~mc =
  let acc = ref 0 in
  for b = 0 to s.banks - 1 do
    acc := !acc + cell s ~site ~mc ~bank:b
  done;
  !acc

let bank_load s =
  let rows = Array.length s.sites + 1 in
  Array.init s.mcs (fun m ->
      Array.init s.banks (fun b ->
          let acc = ref 0 in
          for i = 0 to rows - 1 do
            acc := !acc + cell s ~site:i ~mc:m ~bank:b
          done;
          !acc))

(* ---- JSON ---- *)

let site_to_json (s : site) =
  Json.obj
    [
      ("array", Json.String s.array);
      ("write", Json.Bool s.write);
      ("phase", Json.Int s.phase);
      ("loc", Json.String s.loc);
    ]

let to_json s =
  Json.obj
    [
      ("sites", Json.array site_to_json s.sites);
      ("mcs", Json.Int s.mcs);
      ("banks", Json.Int s.banks);
      ("max_hops", Json.Int s.max_hops);
      ("total", Json.Int (snap_total s));
      ("counts", Json.int_array s.counts);
      ("hops", Json.int_array s.hops);
      ("queue_counts", Json.int_array s.queue_counts);
      ("queue_sum", Json.int_array s.queue_sum);
      ("queue_total", Json.int_array s.queue_total);
    ]

let ( let* ) = Result.bind

module D = Json.Decode

(* machine-written: unknown keys are ignored *)
let site_of_json _ j =
  let* array = D.field "array" D.string j in
  let* write = D.field "write" D.bool j in
  let* phase = D.field "phase" D.int j in
  let* loc = D.field "loc" D.string j in
  Ok { array; write; phase; loc }

let of_json j =
  Result.map_error (fun e -> "Attr.of_json: " ^ e)
  @@
  let* sites = D.field "sites" (D.list site_of_json) j in
  let sites = Array.of_list sites in
  let* mcs = D.field "mcs" D.int j in
  let* banks = D.field "banks" D.int j in
  let* max_hops = D.field "max_hops" D.int j in
  let int_array name = Result.map Array.of_list (D.field name (D.list D.int) j) in
  let* counts = int_array "counts" in
  let* hops = int_array "hops" in
  let* queue_counts = int_array "queue_counts" in
  let* queue_sum = int_array "queue_sum" in
  let* queue_total = int_array "queue_total" in
  let rows = Array.length sites + 1 in
  if
    mcs <= 0 || banks <= 0 || max_hops <= 0
    || Array.length counts <> rows * mcs * banks
    || Array.length hops <> rows * (max_hops + 1)
    || Array.length queue_counts <> rows * queue_buckets
    || Array.length queue_sum <> rows
    || Array.length queue_total <> rows
  then Error "inconsistent shape"
  else if
    List.exists (Array.exists (fun c -> c < 0))
      [ counts; hops; queue_counts; queue_sum; queue_total ]
  then Error "negative count"
  else if
    (* every sum the report takes over the cube must stay an int *)
    Array.fold_left
      (fun acc c -> if acc < 0 || c > max_int - acc then -1 else acc + c)
      0 counts
    < 0
  then Error "counts overflow"
  else
    Ok
      {
        sites;
        mcs;
        banks;
        max_hops;
        counts;
        hops;
        queue_counts;
        queue_sum;
        queue_total;
      }

(* ---- attribution table ---- *)

let avg_hops s i =
  let base = i * (s.max_hops + 1) in
  let n = ref 0 and sum = ref 0 in
  for h = 0 to s.max_hops do
    let c = s.hops.(base + h) in
    n := !n + c;
    sum := !sum + (h * c)
  done;
  if !n = 0 then 0. else float_of_int !sum /. float_of_int !n

let avg_queue s i =
  if s.queue_total.(i) = 0 then 0.
  else float_of_int s.queue_sum.(i) /. float_of_int s.queue_total.(i)

let pp_table ppf s =
  let nsites = Array.length s.sites in
  Format.fprintf ppf "@[<v>";
  let pp_row name rw array phase loc i =
    Format.fprintf ppf "%-4s %s %-8s %-5s %-20s %8d  hops %5.2f  queue %7.2f "
      name rw array phase loc (site_count s i) (avg_hops s i) (avg_queue s i);
    for m = 0 to s.mcs - 1 do
      Format.fprintf ppf " mc%d=%d" m (site_mc_count s ~site:i ~mc:m)
    done;
    Format.fprintf ppf "@,"
  in
  Format.fprintf ppf "%-4s %s %-8s %-5s %-20s %8s@," "site" "rw" "array"
    "phase" "loc" "count";
  Array.iteri
    (fun i (site : site) ->
      pp_row
        (Printf.sprintf "s%d" i)
        (if site.write then "W" else "R")
        site.array
        (string_of_int site.phase)
        site.loc i)
    s.sites;
  if site_count s nsites > 0 then pp_row "?" "-" "-" "-" "(unattributed)" nsites;
  Format.fprintf ppf "total %d@]" (snap_total s)
