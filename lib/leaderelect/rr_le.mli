(** {!Le.t} wrappers for the two RatRace variants, so that all leader
    elections can be driven through one interface. *)

val make_original : Sim.Memory.t -> n:int -> Le.t
val make_lean : Sim.Memory.t -> n:int -> Le.t

val make_atomic :
  Backend.Atomic_mem.mem -> n:int -> Backend.Atomic_mem.ctx Le.elect
(** Lean RatRace ([Ratrace.Ratrace_lean.Make (Backend.Atomic_mem)]),
    packaged for real domains. *)
