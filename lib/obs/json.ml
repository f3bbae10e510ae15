type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let parse s =
  let n = String.length s and pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "%s at offset %d" msg !pos)) in
  (* NUL stands for the end of input: no token starts with it. *)
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let next () =
    if !pos = n then fail "unexpected end of input";
    incr pos;
    s.[!pos - 1]
  in
  let expect c =
    if peek () = c then incr pos else fail (Printf.sprintf "expected %C" c)
  in
  let rec ws () = if String.contains " \t\n\r" (peek ()) then (incr pos; ws ()) in
  let digits () =
    let from = !pos in
    while peek () >= '0' && peek () <= '9' do incr pos done;
    if !pos = from then fail "expected a digit"
  in
  let hex4 () =
    let h = if !pos + 4 <= n then String.sub s !pos 4 else "" in
    let hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
    if h = "" || not (String.for_all hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* One \u escape, or the two of a UTF-16 surrogate pair. *)
  let code_point () =
    let hi = hex4 () in
    if hi land 0xFC00 = 0xDC00 then fail "unpaired surrogate";
    if hi land 0xFC00 <> 0xD800 then hi
    else begin
      expect '\\';
      expect 'u';
      let lo = hex4 () in
      if lo land 0xFC00 <> 0xDC00 then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
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
          | _ -> fail "bad escape");
          go ()
      | c when c < ' ' -> fail "control byte in a string"
      | c ->
          Buffer.add_char b c;
          go ()
    in
    go ()
  in
  let number () =
    let start = !pos in
    if peek () = '-' then incr pos;
    if peek () = '0' then incr pos else digits ();
    if peek () = '.' then (incr pos; digits ());
    if peek () = 'e' || peek () = 'E' then begin
      incr pos;
      if peek () = '+' || peek () = '-' then incr pos;
      digits ()
    end;
    Num (float_of_string (String.sub s start (!pos - start)))
  in
  (* Comma-separated [item]s up to [close]; the opening bracket is read. *)
  let items close item =
    ws ();
    if peek () = close then (incr pos; [])
    else
      let rec more acc =
        let acc = item () :: acc in
        ws ();
        if peek () = ',' then (incr pos; more acc)
        else (expect close; List.rev acc)
      in
      more []
  in
  let word w v = String.iter expect w; v in
  let rec value () =
    ws ();
    match peek () with
    | '{' -> incr pos; Obj (items '}' field)
    | '[' -> incr pos; Arr (items ']' value)
    | '"' -> Str (string ())
    | '-' | '0' .. '9' -> number ()
    | 't' -> word "true" (Bool true)
    | 'f' -> word "false" (Bool false)
    | 'n' -> word "null" Null
    | _ -> fail "expected a value"
  and field () =
    ws ();
    let k = string () in
    ws ();
    expect ':';
    (k, value ())
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing input";
  v

let escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when c < ' ' -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let member k = function Obj kvs -> List.assoc_opt k kvs | _ -> None
let num = function Num f -> f | _ -> raise (Error "expected a number")
let list = function Arr l -> l | _ -> raise (Error "expected an array")
