type mem = int ref  (* registers declared *)
type reg = int Atomic.t
type ctx = { rng : Random.State.t option; slot : int }

let create () = ref 0
let allocated m = !m

(* The counter an allocation on this domain bumps: the arena's, or, while
   this domain builds a table entry on first access, that entry's own.
   A lazy entry's registers were declared with its table, and other
   domains may be building entries at the same moment, so they never
   touch the arena's count. *)
let building : int ref option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let counter m =
  match Domain.DLS.get building with Some c -> c | None -> m

let alloc m ~name:_ =
  incr (counter m);
  Atomic.make 0

(* Entries live in chunks of cells, a chunk allocated on first touch, so
   an untouched table costs one slot per chunk. A cell holds [None]
   until its entry is built; builders race with a CAS and a loser adopts
   the winner's node. *)
let chunk_bits = 6

type 'a cell = 'a option Atomic.t

type 'a table = {
  name : string;
  len : int;
  stride : int;  (* registers per entry *)
  build : int -> 'a;
  chunks : 'a cell array option Atomic.t array;
}

let publish cell x =
  if Atomic.compare_and_set cell None (Some x) then x
  else Option.get (Atomic.get cell)

let chunk t i =
  let slot = t.chunks.(i lsr chunk_bits) in
  match Atomic.get slot with
  | Some c -> c
  | None ->
      let c = Array.init (1 lsl chunk_bits) (fun _ -> Atomic.make None) in
      if Atomic.compare_and_set slot None (Some c) then c
      else Option.get (Atomic.get slot)

let table m ~name len build =
  if len < 1 then
    invalid_arg (Printf.sprintf "Atomic_mem.table %s: length %d < 1" name len);
  let c = counter m in
  let before = !c in
  let first = build 0 in
  let stride = !c - before in
  c := !c + ((len - 1) * stride);
  let chunks =
    Array.init (((len - 1) lsr chunk_bits) + 1) (fun _ -> Atomic.make None)
  in
  let t = { name; len; stride; build; chunks } in
  ignore (publish (chunk t 0).(0) first);
  t

let build_entry t cell i =
  if i >= t.len then
    invalid_arg
      (Printf.sprintf "Atomic_mem.table %s: index %d out of 0..%d" t.name i
         (t.len - 1));
  let used = ref 0 in
  let outer = Domain.DLS.get building in
  Domain.DLS.set building (Some used);
  let x =
    Fun.protect
      ~finally:(fun () -> Domain.DLS.set building outer)
      (fun () -> t.build i)
  in
  if !used <> t.stride then
    invalid_arg
      (Printf.sprintf
         "Atomic_mem.table %s: entry %d allocated %d registers but entry 0 \
          allocated %d"
         t.name i !used t.stride);
  publish cell x

let get t i =
  let cell = (chunk t i).(i land ((1 lsl chunk_bits) - 1)) in
  match Atomic.get cell with Some x -> x | None -> build_entry t cell i

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
