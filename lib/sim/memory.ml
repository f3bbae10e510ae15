(* Register allocator, space accounting, and the arena-reuse path.

   [reset] exists so a trial harness can build an algorithm structure
   (thousands of registers, each with a formatted debug name) once and
   then recycle it across a whole batch of trials. A trial touches a
   small fraction of a large structure, so the arena keeps a dirty list
   of the registers written since the last reset and [reset] restores
   exactly those: its cost is the number of registers the trial wrote,
   not the number allocated.

   [count] is both the space figure and the allocation cursor. A lazily
   built structure [reserve]s a node range up front, so the figure is
   the declared count at once, and builds a node later with [build_at],
   which runs the node's ordinary constructor with the cursor rewound to
   the node's base id. *)

type reg = {
  id : int;
  name : string;
  mutable value : int;
  mutable last_writer : int;
  arena : t;
}

and t = {
  mutable count : int;
  (* Registers written since the last reset, in [dirty.(0 .. n_dirty-1)].
     A register enters on its first write after a reset, which is the
     write that moves [last_writer] off [-1], so it appears at most
     once. Slots past [n_dirty] hold stale entries, never read. *)
  mutable dirty : reg array;
  mutable n_dirty : int;
}

let create () = { count = 0; dirty = [||]; n_dirty = 0 }

let register ?(name = "r") t =
  let id = t.count in
  t.count <- id + 1;
  { id; name; value = 0; last_writer = -1; arena = t }

let reserve t k =
  if k < 0 then invalid_arg "Memory.reserve: negative register count";
  let base = t.count in
  t.count <- base + k;
  base

let build_at t ~base f =
  let saved = t.count in
  t.count <- base;
  Fun.protect
    ~finally:(fun () -> t.count <- saved)
    (fun () ->
      let x = f () in
      (x, t.count - base))

let mark_dirty t r =
  let len = Array.length t.dirty in
  if t.n_dirty = len then begin
    let grown = Array.make (max 16 (2 * len)) r in
    Array.blit t.dirty 0 grown 0 len;
    t.dirty <- grown
  end;
  Array.unsafe_set t.dirty t.n_dirty r;
  t.n_dirty <- t.n_dirty + 1

let write r ~writer v =
  if r.last_writer < 0 then mark_dirty r.arena r;
  r.value <- v;
  r.last_writer <- writer

let reset t =
  for i = 0 to t.n_dirty - 1 do
    let r = Array.unsafe_get t.dirty i in
    r.value <- 0;
    r.last_writer <- -1
  done;
  t.n_dirty <- 0

let allocated t = t.count
