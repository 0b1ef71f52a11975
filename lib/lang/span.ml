(* Byte-offset source spans.  Line/column positions are recovered from the
   source text only when a span is rendered, so carrying spans through the
   lexer, parser and AST costs two ints per node. *)

type t = { file : string; lo : int; hi : int }

let dummy = { file = "<none>"; lo = 0; hi = 0 }

let make ~file ~lo ~hi = { file; lo; hi }

let is_dummy s = s.file = "<none>" && s.lo = 0 && s.hi = 0

type position = { line : int; col : int }

(* Line/column (both 1-based) of a byte offset in [src]. *)
let position_of ~src off =
  let off = min (max 0 off) (String.length src) in
  let line = ref 1 and bol = ref 0 in
  for i = 0 to off - 1 do
    if src.[i] = '\n' then begin
      incr line;
      bol := i + 1
    end
  done;
  { line = !line; col = off - !bol + 1 }

(* The full text of the line containing [off], without its newline. *)
let line_at ~src off =
  let n = String.length src in
  let off = min (max 0 off) n in
  let bol = ref off in
  while !bol > 0 && src.[!bol - 1] <> '\n' do
    decr bol
  done;
  let eol = ref off in
  while !eol < n && src.[!eol] <> '\n' do
    incr eol
  done;
  String.sub src !bol (!eol - !bol)

let pp ?src ppf t =
  match src with
  | Some src when not (is_dummy t) ->
    let p = position_of ~src t.lo in
    Format.fprintf ppf "%s:%d:%d" t.file p.line p.col
  | _ -> Format.fprintf ppf "%s:%d-%d" t.file t.lo t.hi

let to_string ?src t = Format.asprintf "%a" (pp ?src) t
