(* Structured compiler diagnostics: severity, stable error code, source
   span, message and secondary notes.  Replaces the bare-string
   exceptions the seed compiler threw from fifteen scattered sites. *)

type severity = Error | Warning | Note

type note = { note_span : Span.t option; note_text : string }

type t = {
  severity : severity;
  code : string;
  span : Span.t;
  message : string;
  notes : note list;
}

exception Fatal of t
(** Internal abort carrier for the [_result] entry points; callers only
    ever see the [Error] value it is converted into. *)

let make ?(severity = Error) ?(code = "E000") ?(notes = []) span message =
  { severity; code; span; message; notes }

let error ?code ?notes span message = make ~severity:Error ?code ?notes span message

let warning ?code ?notes span message =
  make ~severity:Warning ?code ?notes span message

let note ?span text = { note_span = span; note_text = text }

let severity_string = function
  | Error -> "error"
  | Warning -> "warning"
  | Note -> "note"

let is_error d = d.severity = Error

let has_errors ds = List.exists is_error ds

(* Sort by file, then span start, then severity (errors first). *)
let by_position a b =
  match compare a.span.Span.file b.span.Span.file with
  | 0 -> (
    match compare a.span.Span.lo b.span.Span.lo with
    | 0 -> compare a.severity b.severity
    | c -> c)
  | c -> c

let sorted ds = List.stable_sort by_position ds

(* Caret rendering:

     examples/jacobi.mc:4:9: error[S002]: array Z has rank 2, used with 1 subscript
       Z[j] = Z[j-1][i] + 1;
         ^^^
     note: Z declared here
*)
let pp_caret ~src ppf (span : Span.t) =
  if not (Span.is_dummy span) then begin
    let lo = Span.position_of ~src span.Span.lo in
    let line = Span.line_at ~src span.Span.lo in
    let width =
      let hi = Span.position_of ~src (max span.Span.lo (span.Span.hi - 1)) in
      if hi.Span.line = lo.Span.line then max 1 (hi.Span.col - lo.Span.col + 1)
      else max 1 (String.length line - lo.Span.col + 1)
    in
    Format.fprintf ppf "@,  %s@,  %s%s" line
      (String.make (lo.Span.col - 1) ' ')
      (String.make width '^')
  end

let pp ?src ppf d =
  Format.fprintf ppf "@[<v>%a: %s[%s]: %s" (Span.pp ?src) d.span
    (severity_string d.severity) d.code d.message;
  (match src with Some src -> pp_caret ~src ppf d.span | None -> ());
  List.iter
    (fun n ->
      (match n.note_span with
      | Some s -> Format.fprintf ppf "@,%a: note: %s" (Span.pp ?src) s n.note_text
      | None -> Format.fprintf ppf "@,note: %s" n.note_text);
      match (src, n.note_span) with
      | Some src, Some s -> pp_caret ~src ppf s
      | _ -> ())
    d.notes;
  Format.fprintf ppf "@]"

let to_string ?src d = Format.asprintf "%a" (pp ?src) d

(* An escaped [Fatal] prints as its diagnostic, without the dummy span's
   "<none>:0-0" prefix. *)
let () =
  Printexc.register_printer (function
    | Fatal d when Span.is_dummy d.span ->
      Some
        (Printf.sprintf "%s[%s]: %s" (severity_string d.severity) d.code
           d.message)
    | Fatal d -> Some (to_string d)
    | _ -> None)

let span_json ?src (s : Span.t) =
  let base =
    [
      ("file", Obs.Json.String s.Span.file);
      ("lo", Obs.Json.Int s.Span.lo);
      ("hi", Obs.Json.Int s.Span.hi);
    ]
  in
  let pos =
    match src with
    | None -> []
    | Some src ->
      let p = Span.position_of ~src s.Span.lo in
      [ ("line", Obs.Json.Int p.Span.line); ("col", Obs.Json.Int p.Span.col) ]
  in
  Obs.Json.obj (base @ pos)

let to_json ?src d =
  Obs.Json.obj
    [
      ("severity", Obs.Json.String (severity_string d.severity));
      ("code", Obs.Json.String d.code);
      ("span", span_json ?src d.span);
      ("message", Obs.Json.String d.message);
      ( "notes",
        Obs.Json.list
          (fun n ->
            Obs.Json.obj
              ((match n.note_span with
               | Some s -> [ ("span", span_json ?src s) ]
               | None -> [])
              @ [ ("text", Obs.Json.String n.note_text) ]))
          d.notes );
    ]

let list_to_json ?src ds = Obs.Json.list (to_json ?src) (sorted ds)
