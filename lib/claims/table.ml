type cell = Int of int | Float of int * float | Missing

type series =
  | Col of string
  | Row of string
  | Cell of string * string
  | Const of float

type model = Log_star | Log_log | Log | Linear

type check =
  | Bound of series * series
  | Floor of series * series
  | Order of string * string list
  | Growth of series * model

type t = {
  caption : string;
  columns : string list;
  rows : (string * cell list) list;
  checks : check list;
}

let model_name = function
  | Log_star -> "log*"
  | Log_log -> "log log"
  | Log -> "log"
  | Linear -> "linear"

let next_faster = function
  | Log_star -> Some Log_log
  | Log_log -> Some Log
  | Log -> Some Linear
  | Linear -> None

let log2 x = log x /. log 2.0

let g model x =
  match model with
  | Log_star -> float_of_int (Lowerbound.Logstar.log_star x)
  | Log_log -> log2 (Float.max 1.0 (log2 x))
  | Log -> log2 x
  | Linear -> x

let series_name = function
  | Col c -> c
  | Row r -> r
  | Cell (r, c) -> Printf.sprintf "%s @ %s" r c
  | Const x -> Printf.sprintf "%g" x

let describe = function
  | Bound (a, b) -> Printf.sprintf "bound: %s <= %s" (series_name a) (series_name b)
  | Floor (a, b) -> Printf.sprintf "floor: %s >= %s" (series_name a) (series_name b)
  | Order (c, rows) ->
      Printf.sprintf "order at %s: %s" c (String.concat " <= " rows)
  | Growth (s, m) ->
      Printf.sprintf "growth of %s: %s fits no worse than %s" (series_name s)
        (model_name m)
        (match next_faster m with Some f -> model_name f | None -> "nothing")

(* {1 Reading cells} *)

exception Bad_check of string

let value = function
  | Int i -> Some (float_of_int i)
  | Float (_, x) -> Some x
  | Missing -> None

let headers t = List.tl t.columns

let column t c =
  match List.find_index (String.equal c) (headers t) with
  | Some i -> i
  | None -> raise (Bad_check ("no column " ^ c))

let row t r =
  match List.assoc_opt r t.rows with
  | Some cells -> cells
  | None -> raise (Bad_check ("no row " ^ r))

let cell t r c =
  match value (List.nth (row t r) (column t c)) with
  | Some x -> x
  | None -> raise (Bad_check (Printf.sprintf "no value at %s @ %s" r c))

(* A series as one value, or as cells in table order (unmeasured cells
   as [None]). *)
type points = Scalar of float | Cells of (string * float option) list

let points t = function
  | Const x -> Scalar x
  | Cell (r, c) -> Scalar (cell t r c)
  | Col c ->
      let i = column t c in
      Cells (List.map (fun (label, cells) -> (label, value (List.nth cells i))) t.rows)
  | Row r ->
      Cells (List.map2 (fun h v -> (h, value v)) (headers t) (row t r))

let compare_points t holds a b =
  let measured = List.filter_map (fun (k, v) -> Option.map (fun x -> (k, x)) v) in
  let pairs =
    match (points t a, points t b) with
    | Scalar x, Scalar y -> [ ("", x, y) ]
    | Scalar x, Cells ys -> List.map (fun (k, y) -> (k, x, y)) (measured ys)
    | Cells xs, Scalar y -> List.map (fun (k, x) -> (k, x, y)) (measured xs)
    | Cells xs, Cells ys ->
        if List.length xs <> List.length ys then
          raise (Bad_check "series of different lengths");
        List.filter_map
          (fun ((k, x), (_, y)) ->
            match (x, y) with Some x, Some y -> Some (k, x, y) | _ -> None)
          (List.combine xs ys)
  in
  if pairs = [] then Error "no cells to compare"
  else
    match List.find_opt (fun (_, x, y) -> not (holds x y)) pairs with
    | None -> Ok ()
    | Some (k, x, y) ->
        Error
          (Printf.sprintf "%sgot %g against %g"
             (if k = "" then "" else "at " ^ k ^ ": ")
             x y)

(* Residual sum of squares of the least-squares fit y = a + b·g(x). *)
let residual model xy =
  let n = float_of_int (List.length xy) in
  let gs = List.map (fun (x, y) -> (g model x, y)) xy in
  let mg = List.fold_left (fun s (u, _) -> s +. u) 0.0 gs /. n in
  let my = List.fold_left (fun s (_, y) -> s +. y) 0.0 gs /. n in
  let sum f = List.fold_left (fun s p -> s +. f p) 0.0 gs in
  let sgg = sum (fun (u, _) -> (u -. mg) ** 2.0) in
  let syy = sum (fun (_, y) -> (y -. my) ** 2.0) in
  let sgy = sum (fun (u, y) -> (u -. mg) *. (y -. my)) in
  if sgg = 0.0 then syy else syy -. (sgy *. sgy /. sgg)

let growth t s model =
  let cells =
    match points t s with
    | Cells ps -> ps
    | Scalar _ -> raise (Bad_check "growth needs a row or a column")
  in
  let xy =
    List.filter_map
      (fun (k, y) ->
        match (float_of_string_opt k, y) with
        | _, None -> None
        | Some x, Some y -> Some (x, y)
        | None, Some _ -> raise (Bad_check ("non-numeric key " ^ k)))
      cells
  in
  match next_faster model with
  | None -> Error "no faster model to compare with"
  | Some _ when List.length xy < 3 -> Error "fewer than 3 points"
  | Some faster ->
      let r = residual model xy and r' = residual faster xy in
      if r <= r' then Ok ()
      else
        Error
          (Printf.sprintf "residual %.3g with %s > %.3g with %s" r
             (model_name model) r' (model_name faster))

let order t c rows =
  let rec go = function
    | (r, x) :: ((r', y) :: _ as rest) ->
        if x <= y then go rest
        else Error (Printf.sprintf "%s (%g) > %s (%g)" r x r' y)
    | _ -> Ok ()
  in
  go (List.map (fun r -> (r, cell t r c)) rows)

let evaluate t check =
  try
    match check with
    | Bound (a, b) -> compare_points t ( <= ) a b
    | Floor (a, b) -> compare_points t ( >= ) a b
    | Order (c, rows) -> order t c rows
    | Growth (s, m) -> growth t s m
  with Bad_check msg -> Error msg

let failures t =
  List.filter_map
    (fun c -> match evaluate t c with Ok () -> None | Error _ -> Some (describe c))
    t.checks

(* {1 Rendering} *)

let render = function
  | Int i -> string_of_int i
  | Float (d, x) -> Printf.sprintf "%.*f" d x
  | Missing -> "-"

let pp ppf t =
  let body =
    List.map (fun (label, cells) -> label :: List.map render cells) t.rows
  in
  (* Each column is as wide as its widest cell. Cells are right-aligned;
     so are labels when every label is a number. *)
  let numeric_labels =
    List.for_all (fun (label, _) -> float_of_string_opt label <> None) t.rows
  in
  let layout =
    List.mapi
      (fun i h ->
        ( List.fold_left
            (fun w r -> max w (String.length (List.nth r i)))
            (String.length h) body,
          i > 0 || numeric_labels ))
      t.columns
  in
  let line strs =
    String.concat "  "
      (List.map2
         (fun (width, right) s ->
           let fill = String.make (width - String.length s) ' ' in
           if right then fill ^ s else s ^ fill)
         layout strs)
  in
  if t.caption <> "" then Fmt.pf ppf "%s@." t.caption;
  let header = line t.columns in
  Fmt.pf ppf "%s@.%s@." header (String.make (String.length header) '-');
  List.iter (fun r -> Fmt.pf ppf "%s@." (line r)) body;
  List.iter
    (fun c ->
      match evaluate t c with
      | Ok () -> Fmt.pf ppf "PASS %s@." (describe c)
      | Error why -> Fmt.pf ppf "FAIL %s: %s@." (describe c) why)
    t.checks
