type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* Emission *)

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

(* Non-finite floats have no JSON representation; [emit] maps them to
   null before calling this. *)
let float_repr f =
  let s = Printf.sprintf "%.12g" f in
  (* guarantee a JSON number that parses back as a float *)
  if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then
      Buffer.add_string buf "null"
    else Buffer.add_string buf (float_repr f)
  | String s -> escape_string buf s
  | List xs ->
    Buffer.add_char buf '[';
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        emit buf x)
      xs;
    Buffer.add_char buf ']'
  | Obj kvs ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        escape_string buf k;
        Buffer.add_char buf ':';
        emit buf v)
      kvs;
    Buffer.add_char buf '}'

let to_string j =
  let buf = Buffer.create 256 in
  emit buf j;
  Buffer.contents buf

let to_channel oc j = output_string oc (to_string j)

(* Pretty printing with two-space indentation, for `--json -` output. *)
let rec emit_pretty buf indent = function
  | (Null | Bool _ | Int _ | Float _ | String _) as j -> emit buf j
  | List [] -> Buffer.add_string buf "[]"
  | Obj [] -> Buffer.add_string buf "{}"
  | List xs ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "[\n";
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        emit_pretty buf (indent + 2) x)
      xs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf ']'
  | Obj kvs ->
    let pad = String.make (indent + 2) ' ' in
    Buffer.add_string buf "{\n";
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_string buf ",\n";
        Buffer.add_string buf pad;
        escape_string buf k;
        Buffer.add_string buf ": ";
        emit_pretty buf (indent + 2) v)
      kvs;
    Buffer.add_char buf '\n';
    Buffer.add_string buf (String.make indent ' ');
    Buffer.add_char buf '}'

let to_pretty_string j =
  let buf = Buffer.create 512 in
  emit_pretty buf 0 j;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* Parsing: a small recursive-descent parser, enough for round-tripping
   the NDJSON traces and bench reports this library emits. *)

exception Parse_error of string

let parse s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
      advance ();
      skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal lit v =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then begin
      pos := !pos + l;
      v
    end
    else fail (Printf.sprintf "expected %s" lit)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape"
           else
             let e = s.[!pos] in
             advance ();
             match e with
             | '"' -> Buffer.add_char buf '"'
             | '\\' -> Buffer.add_char buf '\\'
             | '/' -> Buffer.add_char buf '/'
             | 'n' -> Buffer.add_char buf '\n'
             | 't' -> Buffer.add_char buf '\t'
             | 'r' -> Buffer.add_char buf '\r'
             | 'b' -> Buffer.add_char buf '\b'
             | 'f' -> Buffer.add_char buf '\012'
             | 'u' ->
               if !pos + 4 > n then fail "truncated \\u escape";
               (* strict: exactly four hex digits ([int_of_string "0x..."]
                  would also accept OCaml underscore separators) *)
               let hex_digit c =
                 match c with
                 | '0' .. '9' -> Char.code c - Char.code '0'
                 | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                 | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                 | _ -> fail "bad \\u escape"
               in
               let code =
                 (hex_digit s.[!pos] lsl 12)
                 lor (hex_digit s.[!pos + 1] lsl 8)
                 lor (hex_digit s.[!pos + 2] lsl 4)
                 lor hex_digit s.[!pos + 3]
               in
               pos := !pos + 4;
               (* keep it byte-oriented: sub-0x80 maps directly, the rest
                  is encoded as UTF-8 *)
               if code < 0x80 then Buffer.add_char buf (Char.chr code)
               else if code < 0x800 then begin
                 Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
               else begin
                 Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                 Buffer.add_char buf
                   (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                 Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
               end
             | _ -> fail "unknown escape");
          go ()
        | c -> Buffer.add_char buf c; go ()
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    let is_num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    if
      String.contains tok '.' || String.contains tok 'e'
      || String.contains tok 'E'
    then
      match float_of_string_opt tok with
      | Some f -> Float f
      | None -> fail "bad number"
    else
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail "bad number")
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then begin
        advance ();
        List []
      end
      else begin
        let items = ref [] in
        let rec go () =
          items := parse_value () :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some ']' -> advance ()
          | _ -> fail "expected ',' or ']'"
        in
        go ();
        List (List.rev !items)
      end
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then begin
        advance ();
        Obj []
      end
      else begin
        let items = ref [] in
        let rec go () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value () in
          items := (k, v) :: !items;
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            go ()
          | Some '}' -> advance ()
          | _ -> fail "expected ',' or '}'"
        in
        go ();
        Obj (List.rev !items)
      end
    | Some _ -> parse_number ()
  in
  try
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then Error (Printf.sprintf "trailing input at offset %d" !pos)
    else Ok v
  with Parse_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Decoding *)

let member key = function
  | Obj kvs -> List.assoc_opt key kvs
  | _ -> None

type 'a ty = { name : string; get : t -> 'a option }

let int = { name = "integer"; get = (function Int i -> Some i | _ -> None) }

let float =
  {
    name = "number";
    get = (function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None);
  }

let string = { name = "string"; get = (function String s -> Some s | _ -> None) }
let bool = { name = "boolean"; get = (function Bool b -> Some b | _ -> None) }
let list = { name = "list"; get = (function List xs -> Some xs | _ -> None) }
let obj = { name = "object"; get = (function Obj _ as j -> Some j | _ -> None) }
let enum name of_string = { name; get = (fun j -> Option.bind (string.get j) of_string) }
let int64 = enum "int64 string" Int64.of_string_opt

let literal s =
  { name = Printf.sprintf "%S" s; get = (fun j -> if j = String s then Some () else None) }

let map_result f xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> ( match f x with Ok y -> go (y :: acc) rest | Error e -> Error e)
  in
  go [] xs

(* [get] of every element, or [None] *)
let all get xs = Result.to_option (map_result (fun x -> Option.to_result ~none:() (get x)) xs)

let list_of ty =
  { name = ty.name ^ " list"; get = (fun j -> Option.bind (list.get j) (all ty.get)) }

let obj_of ty =
  {
    name = ty.name ^ " object";
    get =
      (function
      | Obj kvs -> all (fun (k, v) -> Option.map (fun v -> (k, v)) (ty.get v)) kvs
      | _ -> None);
  }

let missing record ty key =
  Error (Printf.sprintf "%s: missing %s field %S" record ty.name key)

let req record ty key j =
  match Option.bind (member key j) ty.get with
  | Some v -> Ok v
  | None -> missing record ty key

let opt record ty key j =
  match member key j with
  | None -> Ok None
  | Some v -> (
    match ty.get v with Some v -> Ok (Some v) | None -> missing record ty key)
