open Cmdliner

let ok = 0

let user_error = 1

let internal_error = 2

(* cmdliner reports a bad flag or value as a message, a usage line and a
   hint; keep the message alone *)
let eval ?argv cmd =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  Format.pp_set_margin err 10_000;
  match Cmd.eval_value ?argv ~err cmd with
  | Ok (`Ok code) -> code
  | Ok (`Version | `Help) -> ok
  | Error e ->
    Format.pp_print_flush err ();
    prerr_endline (List.hd (String.split_on_char '\n' (Buffer.contents buf)));
    if e = `Exn then internal_error else user_error

let guard ~name f =
  try f ()
  with e ->
    Printf.eprintf "%s: internal error: %s\n" name (Printexc.to_string e);
    if Printexc.backtrace_status () then
      prerr_string (Printexc.get_backtrace ());
    internal_error

let l2 =
  Arg.(
    value & opt string "private"
    & info [ "l2" ] ~docv:"ORG" ~doc:"L2 organization: private or shared.")

let interleave =
  Arg.(
    value & opt string ""
    & info [ "interleave" ] ~docv:"GRAN"
        ~doc:"Interleaving: line or page.  Default: the platform's own.")

let policy =
  Arg.(
    value & opt string "hardware"
    & info [ "policy" ] ~docv:"POL"
        ~doc:"Page policy: hardware, first-touch or mc-aware.")

let mapping =
  Arg.(
    value & opt string ""
    & info [ "mapping" ] ~docv:"MAP"
        ~doc:
          "L2-to-MC mapping override: M1, M2, or a controller count (8, \
           16).  Default: the platform's own mapping (M1 on the presets).")

let platform =
  Arg.(
    value & opt string ""
    & info [ "platform" ] ~docv:"PRESET|FILE"
        ~doc:
          "Platform description: a named preset (mesh8x8-mc4, mesh8x8-mc8, \
           mesh8x8-mc16, mesh8x8-m2, or the hierarchical chiplet2x2-mc4 \
           and chiplet2x2-mc8 — a 2x2 grid of 4x4-core chiplets joined by \
           12-cycle 8-byte inter-chiplet links) or a platform JSON file.  \
           Default: mesh8x8-mc4, the Table 1 machine; mesh<W>x<H>-mc4 \
           names another mesh size.  --mapping and --interleave still \
           re-configure it.")

let domains =
  Arg.(
    value & opt int 1
    & info [ "domains" ] ~docv:"N"
        ~doc:
          "Simulate with N worker domains (parallel engine).  Results are \
           byte-identical to --domains 1 for every N; workloads the \
           planner cannot split into partitions fall back to the \
           sequential engine with a printed reason.")

let check_domains n =
  if n < 1 then
    Error (Printf.sprintf "--domains must be at least 1 (got %d)" n)
  else Ok ()
