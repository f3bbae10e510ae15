type mem = Sim.Memory.t
type reg = Sim.Register.t
type ctx = Sim.Ctx.t

let alloc mem ~name = Sim.Register.create ~name mem

(* Built entries keyed by index. Indices are dense non-negative ints
   (heap slots, row-major grid cells), so the identity hash spreads them. *)
module Built = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash i = i
end)

type 'a table = {
  mem : mem;
  name : string;
  len : int;
  base : int;  (* id of entry 0's first register *)
  stride : int;  (* registers per entry *)
  build : int -> 'a;
  built : 'a Built.t;
}

let table mem ~name len build =
  if len < 1 then
    invalid_arg (Printf.sprintf "Sim_mem.table %s: length %d < 1" name len);
  let base = Sim.Memory.allocated mem in
  let first = build 0 in
  let stride = Sim.Memory.allocated mem - base in
  ignore (Sim.Memory.reserve mem ((len - 1) * stride));
  let built = Built.create 16 in
  Built.add built 0 first;
  { mem; name; len; base; stride; build; built }

let build_entry t i =
  if i < 0 || i >= t.len then
    invalid_arg
      (Printf.sprintf "Sim_mem.table %s: index %d out of 0..%d" t.name i
         (t.len - 1));
  let x, used =
    Sim.Memory.build_at t.mem ~base:(t.base + (i * t.stride)) (fun () ->
        t.build i)
  in
  if used <> t.stride then
    invalid_arg
      (Printf.sprintf
         "Sim_mem.table %s: entry %d allocated %d registers but entry 0 \
          allocated %d"
         t.name i used t.stride);
  Built.add t.built i x;
  x

let get t i =
  match Built.find t.built i with
  | x -> x
  | exception Not_found -> build_entry t i

let self = Sim.Ctx.pid
let read = Sim.Ctx.read
let write = Sim.Ctx.write
let flip = Sim.Ctx.flip
let flip_bool = Sim.Ctx.flip_bool
let flip_geometric = Sim.Ctx.flip_geometric
let enter ctx phase = Obs.enter ~pid:(Sim.Ctx.pid ctx) phase
let leave ctx phase = Obs.leave ~pid:(Sim.Ctx.pid ctx) phase
