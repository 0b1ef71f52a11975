type t = { mutable entries : (string * float) list (* reverse order *) }

let create () = { entries = [] }

let record t name seconds =
  let rec bump = function
    | [] -> [ (name, seconds) ]
    | (n, s) :: rest when String.equal n name -> (n, s +. seconds) :: rest
    | e :: rest -> e :: bump rest
  in
  t.entries <- bump t.entries

let time t name f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> record t name (Unix.gettimeofday () -. t0))
    f

let phases t = t.entries

let total t = List.fold_left (fun acc (_, s) -> acc +. s) 0. t.entries

let pp ppf t =
  let all = total t in
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i (name, s) ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%-12s %8.2f ms  %5.1f%%" name (1000. *. s)
        (if all = 0. then 0. else 100. *. s /. all))
    t.entries;
  Format.fprintf ppf "@,%-12s %8.2f ms@]" "total" (1000. *. all)
