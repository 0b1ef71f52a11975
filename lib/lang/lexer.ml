type token =
  | IDENT of string
  | INT of int
  | KW_PARAM
  | KW_ARRAY
  | KW_INDEX
  | KW_FOR
  | KW_PARFOR
  | KW_TO
  | KW_IF
  | KW_ELSE
  | LBRACKET
  | RBRACKET
  | LBRACE
  | RBRACE
  | LPAREN
  | RPAREN
  | PLUS
  | MINUS
  | STAR
  | SLASH
  | PERCENT
  | EQUALS
  | LT
  | LE
  | GT
  | GE
  | EQEQ
  | NE
  | SEMI
  | EOF

type spanned = { tok : token; span : Span.t }

let keyword = function
  | "param" -> Some KW_PARAM
  | "array" -> Some KW_ARRAY
  | "index" -> Some KW_INDEX
  | "for" -> Some KW_FOR
  | "parfor" -> Some KW_PARFOR
  | "to" -> Some KW_TO
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | _ -> None

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')

let is_digit c = c >= '0' && c <= '9'

(* The scanner proper: spanned tokens, or the first lexical diagnostic.
   [//] comments run to end of line; [/* ... */] comments nest one level
   deep in spirit (they do not nest — the first [*/] closes) and must be
   terminated before EOF. *)
let scan ?(file = "<input>") src =
  let n = String.length src in
  let toks = ref [] in
  let push tok lo hi = toks := { tok; span = Span.make ~file ~lo ~hi } :: !toks in
  let err ?notes code lo hi msg =
    Result.Error (Diag.error ~code ?notes (Span.make ~file ~lo ~hi) msg)
  in
  let i = ref 0 in
  let result = ref None in
  while Option.is_none !result && !i < n do
    let c = src.[!i] in
    let st = !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then incr i
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '/' then begin
      while !i < n && src.[!i] <> '\n' do
        incr i
      done
    end
    else if c = '/' && !i + 1 < n && src.[!i + 1] = '*' then begin
      (* block comment: scan for the closing [*/]; reaching EOF first is a
         located error at the opening delimiter, not silent truncation *)
      i := !i + 2;
      let closed = ref false in
      while (not !closed) && !i < n do
        if src.[!i] = '*' && !i + 1 < n && src.[!i + 1] = '/' then begin
          closed := true;
          i := !i + 2
        end
        else incr i
      done;
      if not !closed then
        result :=
          Some
            (err "L002" st (st + 2) "unterminated block comment"
               ~notes:[ Diag.note "the comment is opened here and never closed with */" ])
    end
    else if is_digit c then begin
      while !i < n && is_digit src.[!i] do
        incr i
      done;
      push (INT (int_of_string (String.sub src st (!i - st)))) st !i
    end
    else if is_ident_start c then begin
      while !i < n && is_ident_char src.[!i] do
        incr i
      done;
      let s = String.sub src st (!i - st) in
      push (match keyword s with Some k -> k | None -> IDENT s) st !i
    end
    else if c = '<' then
      if !i + 1 < n && src.[!i + 1] = '=' then begin
        push LE st (st + 2);
        i := !i + 2
      end
      else begin
        push LT st (st + 1);
        incr i
      end
    else if c = '>' then
      if !i + 1 < n && src.[!i + 1] = '=' then begin
        push GE st (st + 2);
        i := !i + 2
      end
      else begin
        push GT st (st + 1);
        incr i
      end
    else if c = '=' && !i + 1 < n && src.[!i + 1] = '=' then begin
      push EQEQ st (st + 2);
      i := !i + 2
    end
    else if c = '!' && !i + 1 < n && src.[!i + 1] = '=' then begin
      push NE st (st + 2);
      i := !i + 2
    end
    else begin
      (match c with
      | '[' -> push LBRACKET st (st + 1)
      | ']' -> push RBRACKET st (st + 1)
      | '{' -> push LBRACE st (st + 1)
      | '}' -> push RBRACE st (st + 1)
      | '(' -> push LPAREN st (st + 1)
      | ')' -> push RPAREN st (st + 1)
      | '+' -> push PLUS st (st + 1)
      | '-' -> push MINUS st (st + 1)
      | '*' -> push STAR st (st + 1)
      | '/' -> push SLASH st (st + 1)
      | '%' -> push PERCENT st (st + 1)
      | '=' -> push EQUALS st (st + 1)
      | ';' -> push SEMI st (st + 1)
      | _ ->
        result :=
          Some
            (err "L001" st (st + 1)
               (Printf.sprintf "unexpected character %C" c)));
      if Option.is_none !result then incr i
    end
  done;
  match !result with
  | Some e -> e
  | None ->
    push EOF n n;
    Ok (List.rev !toks)

let pp_token ppf = function
  | IDENT s -> Format.fprintf ppf "ident %s" s
  | INT n -> Format.fprintf ppf "int %d" n
  | KW_PARAM -> Format.pp_print_string ppf "param"
  | KW_ARRAY -> Format.pp_print_string ppf "array"
  | KW_INDEX -> Format.pp_print_string ppf "index"
  | KW_FOR -> Format.pp_print_string ppf "for"
  | KW_PARFOR -> Format.pp_print_string ppf "parfor"
  | KW_TO -> Format.pp_print_string ppf "to"
  | LBRACKET -> Format.pp_print_string ppf "["
  | RBRACKET -> Format.pp_print_string ppf "]"
  | LBRACE -> Format.pp_print_string ppf "{"
  | RBRACE -> Format.pp_print_string ppf "}"
  | LPAREN -> Format.pp_print_string ppf "("
  | RPAREN -> Format.pp_print_string ppf ")"
  | PLUS -> Format.pp_print_string ppf "+"
  | MINUS -> Format.pp_print_string ppf "-"
  | STAR -> Format.pp_print_string ppf "*"
  | SLASH -> Format.pp_print_string ppf "/"
  | PERCENT -> Format.pp_print_string ppf "%"
  | EQUALS -> Format.pp_print_string ppf "="
  | LT -> Format.pp_print_string ppf "<"
  | LE -> Format.pp_print_string ppf "<="
  | GT -> Format.pp_print_string ppf ">"
  | GE -> Format.pp_print_string ppf ">="
  | EQEQ -> Format.pp_print_string ppf "=="
  | NE -> Format.pp_print_string ppf "!="
  | SEMI -> Format.pp_print_string ppf ";"
  | EOF -> Format.pp_print_string ppf "<eof>"
  | KW_IF -> Format.pp_print_string ppf "if"
  | KW_ELSE -> Format.pp_print_string ppf "else"
