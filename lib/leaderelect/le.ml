type 'ctx elect = 'ctx -> bool

type t = Sim.Ctx.t elect

module type S = functor (M : Backend.Mem.S) -> sig
  type t

  val create : ?name:string -> M.mem -> n:int -> t
  val elect : t -> M.ctx -> bool
end

let programs elect ~k = Array.init k (fun _ ctx -> if elect ctx then 1 else 0)

let winners sched =
  let out = ref [] in
  Array.iteri
    (fun pid r -> if r = Some 1 then out := pid :: !out)
    (Sim.Sched.results sched);
  List.rev !out
