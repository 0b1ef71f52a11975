type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ---- encoding ---- *)

let escape_string buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\b' -> Buffer.add_string buf "\\b"
      | '\012' -> Buffer.add_string buf "\\f"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let add_float buf f =
  match Float.classify_float f with
  | FP_nan | FP_infinite -> Buffer.add_string buf "null"
  | _ ->
    (* shortest representation that round-trips the binary value *)
    let s = Printf.sprintf "%.17g" f in
    let s =
      let short = Printf.sprintf "%g" f in
      if float_of_string short = f then short else s
    in
    Buffer.add_string buf s;
    (* make sure it re-parses as a float, not an int *)
    if String.for_all (fun c -> (c >= '0' && c <= '9') || c = '-') s then
      Buffer.add_string buf ".0"

let rec write buf ~minify ~indent v =
  let nl pad =
    if not minify then begin
      Buffer.add_char buf '\n';
      Buffer.add_string buf (String.make pad ' ')
    end
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> escape_string buf s
  | List [] -> Buffer.add_string buf "[]"
  | List items ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i item ->
        if i > 0 then Buffer.add_char buf ',';
        nl (indent + 2);
        write buf ~minify ~indent:(indent + 2) item)
      items;
    nl indent;
    Buffer.add_char buf ']'
  | Obj [] -> Buffer.add_string buf "{}"
  | Obj fields ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, item) ->
        if i > 0 then Buffer.add_char buf ',';
        nl (indent + 2);
        escape_string buf k;
        Buffer.add_char buf ':';
        if not minify then Buffer.add_char buf ' ';
        write buf ~minify ~indent:(indent + 2) item)
      fields;
    nl indent;
    Buffer.add_char buf '}'

let to_string ?(minify = false) v =
  let buf = Buffer.create 256 in
  write buf ~minify ~indent:0 v;
  Buffer.contents buf

let to_channel oc v =
  output_string oc (to_string v);
  output_char oc '\n'

let to_file path v =
  (* unique per process, so concurrent writers never share a temp file *)
  let tmp = Printf.sprintf "%s.%d.tmp" path (Unix.getpid ()) in
  try
    Out_channel.with_open_bin tmp (fun oc -> to_channel oc v);
    Sys.rename tmp path;
    Ok ()
  with Sys_error e ->
    (try Sys.remove tmp with Sys_error _ -> ());
    (* keep the reason, name the path the caller asked for *)
    let reason =
      match String.rindex_opt e ':' with
      | Some i -> String.trim (String.sub e (i + 1) (String.length e - i - 1))
      | None -> e
    in
    Error (Printf.sprintf "%s: cannot write: %s" path reason)

(* ---- parsing ---- *)

exception Parse_error of string

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      incr pos
    done
  in
  let expect c =
    if !pos < n && s.[!pos] = c then incr pos
    else fail (Printf.sprintf "expected %c" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail ("expected " ^ lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      match s.[!pos] with
      | '"' -> incr pos
      | '\\' ->
        incr pos;
        if !pos >= n then fail "unterminated escape";
        (match s.[!pos] with
        | '"' -> Buffer.add_char buf '"'
        | '\\' -> Buffer.add_char buf '\\'
        | '/' -> Buffer.add_char buf '/'
        | 'n' -> Buffer.add_char buf '\n'
        | 'r' -> Buffer.add_char buf '\r'
        | 't' -> Buffer.add_char buf '\t'
        | 'b' -> Buffer.add_char buf '\b'
        | 'f' -> Buffer.add_char buf '\012'
        | 'u' ->
          if !pos + 4 >= n then fail "short \\u escape";
          let hex = String.sub s (!pos + 1) 4 in
          let code =
            try int_of_string ("0x" ^ hex) with _ -> fail "bad \\u escape"
          in
          pos := !pos + 4;
          (* encode the code point as UTF-8 (no surrogate pairing: the
             encoder only emits \u for control characters) *)
          if code < 0x80 then Buffer.add_char buf (Char.chr code)
          else if code < 0x800 then begin
            Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
          else begin
            Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
            Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
            Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
          end
        | c -> fail (Printf.sprintf "bad escape \\%c" c));
        incr pos;
        go ()
      | c ->
        Buffer.add_char buf c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_float = ref false in
    if peek () = Some '-' then incr pos;
    while
      !pos < n
      &&
      match s.[!pos] with
      | '0' .. '9' -> true
      | '.' | 'e' | 'E' | '+' | '-' ->
        is_float := true;
        true
      | _ -> false
    do
      incr pos
    done;
    let text = String.sub s start (!pos - start) in
    if !is_float then
      match float_of_string_opt text with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> String (parse_string ())
    | Some '[' ->
      incr pos;
      skip_ws ();
      if peek () = Some ']' then begin
        incr pos;
        List []
      end
      else begin
        let items = ref [ parse_value () ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          items := parse_value () :: !items;
          skip_ws ()
        done;
        expect ']';
        List (List.rev !items)
      end
    | Some '{' ->
      incr pos;
      skip_ws ();
      if peek () = Some '}' then begin
        incr pos;
        Obj []
      end
      else begin
        let field () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          (k, v)
        in
        let fields = ref [ field () ] in
        skip_ws ();
        while peek () = Some ',' do
          incr pos;
          fields := field () :: !fields;
          skip_ws ()
        done;
        expect '}';
        Obj (List.rev !fields)
      end
    | Some ('-' | '0' .. '9') -> parse_number ()
    | Some c -> fail (Printf.sprintf "unexpected %c" c)
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

(* ---- helpers ---- *)

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool a, Bool b -> a = b
  | Int a, Int b -> a = b
  | Float a, Float b -> a = b || (Float.is_nan a && Float.is_nan b)
  | String a, String b -> String.equal a b
  | List a, List b -> ( try List.for_all2 equal a b with Invalid_argument _ -> false)
  | Obj a, Obj b -> (
    try List.for_all2 (fun (ka, va) (kb, vb) -> String.equal ka kb && equal va vb) a b
    with Invalid_argument _ -> false)
  | _ -> false

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let obj fields = Obj fields

let list f items = List (List.map f items)

let array f items = List (Array.to_list (Array.map f items))

let int_array a = array (fun i -> Int i) a

let float_array a = array (fun f -> Float f) a

(* ---- reading and decoding ---- *)

let of_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | text -> Result.map_error (fun e -> path ^ ": " ^ e) (of_string text)
  | exception Sys_error e ->
    (* open errors already name the path; read errors do not *)
    let prefix = path ^ ": " in
    if String.starts_with ~prefix e then Error e else Error (prefix ^ e)

let decode_file path decode =
  Result.bind (of_file path) (fun j ->
      Result.map_error (fun e -> path ^ ": " ^ e) (decode j))

module Decode = struct
  type 'a decoder = string -> t -> ('a, string) result

  let ( let* ) = Result.bind

  let int ctx = function Int i -> Ok i | _ -> Error (ctx ^ " must be an integer")

  let float ctx = function
    | Float f -> Ok f
    | Int i -> Ok (float_of_int i)
    | _ -> Error (ctx ^ " must be a number")

  let bool ctx = function Bool b -> Ok b | _ -> Error (ctx ^ " must be a boolean")

  let string ctx = function String s -> Ok s | _ -> Error (ctx ^ " must be a string")

  (* left to right, stopping at the first error *)
  let rec all f acc = function
    | [] -> Ok (List.rev acc)
    | x :: tl ->
      let* y = f x in
      all f (y :: acc) tl

  let list decode ctx = function
    | List l -> all (decode ctx) [] l
    | _ -> Error (ctx ^ " must be a list")

  let assoc decode ctx = function
    | Obj fields -> all (fun (k, v) -> Result.map (fun x -> (k, x)) (decode k v)) [] fields
    | _ -> Error (ctx ^ " must be an object")

  let field ?default name decode j =
    match (member name j, default) with
    | Some v, _ -> decode (Printf.sprintf "field %S" name) v
    | None, Some d -> Ok d
    | None, None -> Error (Printf.sprintf "missing field %S" name)

  let known_fields ~what known = function
    | Obj fields -> (
      match List.find_opt (fun (k, _) -> not (List.mem k known)) fields with
      | Some (k, _) -> Error (Printf.sprintf "unknown %s field %S" what k)
      | None -> Ok ())
    | _ -> Error (what ^ " must be an object")
end
