let make_original mem ~n =
  let rr = Ratrace.Rr_classic.create mem ~n in
  { Le.le_name = "ratrace"; elect = Ratrace.Rr_classic.elect rr }

let make_lean mem ~n =
  let rr = Ratrace.Ratrace_lean.create mem ~n in
  { Le.le_name = "ratrace-lean"; elect = Ratrace.Ratrace_lean.elect rr }

let make_atomic mem ~n =
  let module A = Ratrace.Ratrace_lean.Make (Backend.Atomic_mem) in
  { Le.le_name = "ratrace-lean"; elect = A.elect (A.create mem ~n) }
