let dump path (job : Engine.job) =
  let oc = open_out path in
  let site_streams = Array.of_list job.Engine.site_streams in
  let tagged = site_streams <> [||] in
  let offset = job.Engine.vaddr_offset in
  output_string oc
    (if tagged then "# offchip trace v2\n" else "# offchip trace v1\n");
  List.iteri
    (fun p (phase : Lang.Interp.phase) ->
      Printf.fprintf oc "phase %d\n" (Array.length phase);
      Array.iteri
        (fun t stream ->
          Printf.fprintf oc "t %d %d\n" t (Array.length stream);
          Array.iteri
            (fun i a ->
              Printf.fprintf oc "%d %c"
                (Lang.Interp.addr_of_access a + offset)
                (if Lang.Interp.is_write a then 'W' else 'R');
              if tagged then
                Printf.fprintf oc " %d" site_streams.(p).(t).(i);
              output_char oc '\n')
            stream)
        phase)
    job.Engine.phases;
  close_out oc

let total_accesses phases =
  List.fold_left
    (fun acc ph -> acc + Array.fold_left (fun a s -> a + Array.length s) 0 ph)
    0 phases
