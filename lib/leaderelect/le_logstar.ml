let ceil_log2 n =
  let rec go acc v = if v <= 1 then acc else go (acc + 1) ((v + 1) / 2) in
  max 1 (go 0 n)

let default_cutoff ~n = min n (3 * ceil_log2 n)

type t = { chain : Chain.t }

let create ?(name = "logstar") ?cutoff mem ~n =
  if n < 1 then invalid_arg "Le_logstar.create: n must be >= 1";
  let cutoff =
    match cutoff with Some c -> min c n | None -> default_cutoff ~n
  in
  let ges =
    Array.init n (fun i ->
        if i < cutoff then
          Groupelect.Ge_logstar.create
            ~name:(Printf.sprintf "%s.ge[%d]" name i)
            mem ~n
        else Groupelect.Ge_dummy.create ~name:(Printf.sprintf "%s.dummy[%d]" name i) ())
  in
  { chain = Chain.create mem ~name ges }

let elect t ctx = Chain.elect t.chain ctx

let to_le t = { Le.le_name = "log*"; elect = elect t }

let make mem ~n = to_le (create mem ~n)
