module A = Tas.Make (Backend.Atomic_mem)

type t =
  | Elect of A.t
  | Native of bool Atomic.t

let create build =
  let mem = Backend.Atomic_mem.create () in
  let elect = build mem in
  Elect (A.create mem ~elect)

let native () = Native (Atomic.make false)

let apply t rng ~slot =
  match t with
  | Native flag -> if Atomic.exchange flag true then 1 else 0
  | Elect tas -> A.apply tas (Backend.Atomic_mem.ctx ~rng ~slot ())
