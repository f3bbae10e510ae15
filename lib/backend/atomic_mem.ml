type mem = { mutable count : int }
type reg = int Atomic.t
type ctx = { rng : Random.State.t option; slot : int }

let create () = { count = 0 }
let allocated m = m.count

let alloc m ~name:_ =
  m.count <- m.count + 1;
  Atomic.make 0

(* Eager: every entry exists before the table is shared, so domains only
   ever read the array and no publication protocol is needed. *)
type 'a table = 'a array

let table m ~name len build =
  if len < 1 then
    invalid_arg (Printf.sprintf "Atomic_mem.table %s: length %d < 1" name len);
  let stride = ref 0 in
  Array.init len (fun i ->
      let before = m.count in
      let x = build i in
      let used = m.count - before in
      if i = 0 then stride := used
      else if used <> !stride then
        invalid_arg
          (Printf.sprintf
             "Atomic_mem.table %s: entry %d allocated %d registers but entry \
              0 allocated %d"
             name i used !stride);
      x)

let get = Array.get
let ctx ?rng ~slot () =
  if slot < 0 then
    invalid_arg (Printf.sprintf "Atomic_mem.ctx: slot %d is negative" slot);
  { rng; slot }
let self c = c.slot
let read _ r = Atomic.get r
let write _ r v = Atomic.set r v

let rng c =
  match c.rng with
  | Some r -> r
  | None ->
      invalid_arg
        "Atomic_mem: this context carries no Random.State but the algorithm \
         flipped a coin"

let flip c bound = Random.State.int (rng c) bound
let flip_bool c = Random.State.bool (rng c)

(* Same truncated-geometric shape as [Sim.Rng.geometric_capped]: count
   fair coins until the first heads, capped at [l]. *)
let flip_geometric c l =
  if l < 1 then invalid_arg "Atomic_mem.flip_geometric: l must be >= 1";
  let r = rng c in
  let rec loop i =
    if i >= l then l else if Random.State.bool r then i else loop (i + 1)
  in
  loop 1

let enter _ _ = ()
let leave _ _ = ()
