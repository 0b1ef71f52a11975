(** Hand-written lexer for the mini language. *)

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

val scan : ?file:string -> string -> (spanned list, Diag.t) result
(** Tokenizes a full source string into spanned tokens ending with [EOF].
    Comments run from [//] to end of line or between [/*] and [*/]; an
    unterminated block comment or a stray character yields a located
    diagnostic ([L002] / [L001]) instead of silent truncation. *)

val pp_token : Format.formatter -> token -> unit
