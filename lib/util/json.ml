type t =
  | Null
  | Bool of bool
  | Num of string
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

let int i = Num (string_of_int i)
let int64 i = Num (Int64.to_string i)
let fixed d x = if Float.is_finite x then Num (Printf.sprintf "%.*f" d x) else Null
let general d x = if Float.is_finite x then Num (Printf.sprintf "%.*g" d x) else Null

(* --- serializer --------------------------------------------------------- *)

let escape b s =
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s

let write_seq b openc close item items =
  Buffer.add_char b openc;
  List.iteri (fun i x -> if i > 0 then Buffer.add_char b ','; item x) items;
  Buffer.add_char b close

let rec write b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (string_of_bool x)
  | Num n -> Buffer.add_string b n
  | Str s -> Buffer.add_char b '"'; escape b s; Buffer.add_char b '"'
  | Arr items -> write_seq b '[' ']' (write b) items
  | Obj fields ->
    write_seq b '{' '}' (fun (k, v) -> write b (Str k); Buffer.add_char b ':'; write b v) fields

let to_string v =
  let b = Buffer.create 256 in
  write b v;
  Buffer.contents b

(* --- parser -------------------------------------------------------------- *)

exception Syntax of int * string

let parse s =
  let len = String.length s and pos = ref 0 in
  let fail msg = raise (Syntax (!pos, msg)) in
  let peek () = if !pos < len then s.[!pos] else fail "unexpected end of input" in
  let next () =
    let c = peek () in
    incr pos;
    c
  in
  let eat c = !pos < len && s.[!pos] = c && (incr pos; true) in
  let expect c = if not (eat c) then fail (Printf.sprintf "expected %C" c) in
  let rec skip_ws () = if eat ' ' || eat '\t' || eat '\n' || eat '\r' then skip_ws () in
  let digits () =
    let start = !pos in
    while !pos < len && s.[!pos] >= '0' && s.[!pos] <= '9' do incr pos done;
    if !pos = start then fail "expected a digit"
  in
  let number () =
    let start = !pos in
    ignore (eat '-');
    if not (eat '0') then digits ();
    if eat '.' then digits ();
    if eat 'e' || eat 'E' then (ignore (eat '+' || eat '-'); digits ());
    Num (String.sub s start (!pos - start))
  in
  let hex4 () =
    let n = ref 0 in
    for _ = 1 to 4 do
      let d =
        match next () with
        | '0' .. '9' as c -> Char.code c - Char.code '0'
        | 'a' .. 'f' as c -> Char.code c - Char.code 'a' + 10
        | 'A' .. 'F' as c -> Char.code c - Char.code 'A' + 10
        | _ -> fail "invalid \\u escape"
      in
      n := (!n lsl 4) lor d
    done;
    !n
  in
  let code_point () =
    match hex4 () with
    | hi when hi >= 0xD800 && hi <= 0xDBFF ->
      expect '\\'; expect 'u';
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    | u when u >= 0xDC00 && u <= 0xDFFF -> fail "unpaired surrogate"
    | u -> u
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match next () with
      | '"' -> Buffer.contents b
      | '\\' ->
        (match next () with
        | ('"' | '\\' | '/') as c -> Buffer.add_char b c
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'n' -> Buffer.add_char b '\n'
        | 'r' -> Buffer.add_char b '\r'
        | 't' -> Buffer.add_char b '\t'
        | 'u' -> Buffer.add_utf_8_uchar b (Uchar.of_int (code_point ()))
        | _ -> fail "invalid escape");
        go ()
      | c when c < ' ' -> fail "control character in string"
      | c -> Buffer.add_char b c; go ()
    in
    go ()
  in
  let literal word v = String.iter expect word; v in
  (* A comma-separated sequence after its opening bracket, up to and
     including [close]. *)
  let items close item =
    skip_ws ();
    if eat close then []
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        if eat ',' then go acc else (expect close; List.rev acc)
      in
      go []
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | '{' -> incr pos; Obj (items '}' field)
    | '[' -> incr pos; Arr (items ']' value)
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | '-' | '0' .. '9' -> number ()
    | c -> fail (Printf.sprintf "unexpected %C" c)
  and field () =
    skip_ws ();
    let k = string () in
    skip_ws (); expect ':'; (k, value ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos < len then fail "trailing bytes after the document";
    v
  with
  | v -> Ok v
  | exception Syntax (at, msg) -> Error (Printf.sprintf "json: %s at byte %d" msg at)

(* --- field accessors ------------------------------------------------------ *)

let member key = function Obj fields -> List.assoc_opt key fields | _ -> None

let field key v =
  match member key v with
  | Some x -> x
  | None -> failwith (Printf.sprintf "missing field %S" key)

let typed what conv key v =
  match conv (field key v) with
  | Some x -> x
  | None -> failwith (Printf.sprintf "field %S is not %s" key what)

let string_field = typed "a string" (function Str s -> Some s | _ -> None)
let int_field = typed "an int" (function Num n -> int_of_string_opt n | _ -> None)
let float_field = typed "a number" (function Num n -> float_of_string_opt n | _ -> None)
let list_field = typed "an array" (function Arr items -> Some items | _ -> None)
