(* Hierarchical timing wheel over integer virtual-time ticks, backed by
   a free-list event pool held in parallel arrays. Schedule and advance
   are O(1) amortised and allocation-free in steady state: an event is
   four scalar-array writes, and popping the next event is a bitmap
   scan plus an array read. The driver's virtual clock only moves
   forward, which is what makes the wheel applicable where a general
   priority queue would be needed.

   Layout: [levels] wheels of 256 slots each; level [l] slot [s] holds
   events whose tick has [s] in bit-field [8l .. 8l+7] and whose delta
   from [cur] is in [256^l, 256^(l+1)). As [cur] crosses a level-l
   window boundary the covering level-(l+1) slot is cascaded — its
   events rehashed into lower levels — one boundary at a time, so a
   slot never mixes events from different rotations at drain time.

   Pool packing: the driver's tie-break pair ([key], [kseq]) packs into
   one non-negative int ([key] in the top 20 payload bits, [kseq] in
   the low 42), so the shard-invariant total order (at, key, kseq) is
   the lexicographic pair (at, ord) — one float compare and one int
   compare. The payload ([kind], [a], [b]) packs into a second int.
   Four arrays per event instead of seven is measurably faster on the
   pre-push-heavy service workload (fewer cache lines per event).

   Ordering: ties on the same tick are broken by exact event time,
   then by [ord], via an insertion-sorted "due" buffer holding the
   currently-draining slot. Events scheduled at or before [cur] while
   the due buffer is live are binary-inserted into it, preserving the
   total order even for zero-delay reschedules. *)

let bits = 8
let slots_per_level = 1 lsl bits
let slot_mask = slots_per_level - 1
let levels = 6
let horizon = 1 lsl (bits * levels)
let occ_words = slots_per_level / 32

(* Packing widths. [ord = key lsl 42 lor kseq] stays within 62 bits,
   so it is a non-negative OCaml int and int comparison agrees with
   the (key, kseq) lexicographic order. *)
let kseq_bits = 42
let max_key = (1 lsl 20) - 1
let max_kseq = (1 lsl kseq_bits) - 1
let ab_bits = 30
let max_ab = (1 lsl ab_bits) - 1
let max_kind = 3

type t = {
  (* Event pool: parallel arrays indexed by event id; [ev_next] chains
     both the free list and the per-slot lists. *)
  mutable ev_at : float array;
  mutable ev_ord : int array;  (* key lsl 42 lor kseq *)
  mutable ev_meta : int array;  (* kind lsl 60 lor a lsl 30 lor b *)
  mutable ev_next : int array;
  mutable free : int;
  mutable live : int;
  mutable hw_live : int;  (* high-water mark of [live] over the run *)
  slots : int array;  (* levels * 256 list heads, -1 = empty *)
  occ : int array;  (* per-level occupancy bitmap, 8 x 32-bit words *)
  mutable cur : int;  (* current tick; never decreases *)
  mutable due : int array;  (* event ids, descending order; pop from end *)
  mutable due_len : int;
}

let key_of_ord ord = ord lsr kseq_bits
let kseq_of_ord ord = ord land max_kseq
let kind_of_meta meta = meta lsr (2 * ab_bits)
let a_of_meta meta = (meta lsr ab_bits) land max_ab
let b_of_meta meta = meta land max_ab

let create ?(capacity = 1024) () =
  let cap = max 16 capacity in
  let ev_next = Array.init cap (fun i -> i + 1) in
  ev_next.(cap - 1) <- -1;
  {
    ev_at = Array.make cap 0.0;
    ev_ord = Array.make cap 0;
    ev_meta = Array.make cap 0;
    ev_next;
    free = 0;
    live = 0;
    hw_live = 0;
    slots = Array.make (levels * slots_per_level) (-1);
    occ = Array.make (levels * occ_words) 0;
    cur = 0;
    due = Array.make 64 (-1);
    due_len = 0;
  }

let live t = t.live

(* An empty wheel has every pool id on the free list, no slot list and
   an empty due buffer, so only the clock and the mark need rewinding. *)
let reset t =
  if t.live > 0 then invalid_arg "Wheel.reset: events still scheduled";
  t.cur <- 0;
  t.hw_live <- 0

let now_tick t = t.cur
let high_water t = t.hw_live
let pool_capacity t = Array.length t.ev_at

(* Occupied (level, slot) pairs: a popcount over the occupancy bitmaps
   plus the due buffer standing in for the slot being drained. Distinct
   from [live] — hundreds of same-tick events share one slot. *)
let popcount32 x =
  let x = x - ((x lsr 1) land 0x55555555) in
  let x = (x land 0x33333333) + ((x lsr 2) land 0x33333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F in
  (x * 0x01010101) lsr 24 land 0xFF

let slots_occupied t =
  let n = ref (if t.due_len > 0 then 1 else 0) in
  Array.iter (fun w -> n := !n + popcount32 w) t.occ;
  !n

let grow t =
  let cap = Array.length t.ev_at in
  let ncap = 2 * cap in
  let extend a zero =
    let b = Array.make ncap zero in
    Array.blit a 0 b 0 cap;
    b
  in
  t.ev_at <- extend t.ev_at 0.0;
  t.ev_ord <- extend t.ev_ord 0;
  t.ev_meta <- extend t.ev_meta 0;
  t.ev_next <- extend t.ev_next 0;
  for i = cap to ncap - 1 do
    t.ev_next.(i) <- i + 1
  done;
  t.ev_next.(ncap - 1) <- t.free;
  t.free <- cap

(* Strict total order: (at, key, kseq) lexicographic == (at, ord). *)
(* Hot-path array accesses below use [unsafe_get]/[unsafe_set] (the
   flatsim convention): every index is an internal invariant — pool
   ids come off the free list, slot indices are masked, and due
   positions are bounds-managed by [due_reserve]. *)
let ev_lt t i j =
  let ai = Array.unsafe_get t.ev_at i and aj = Array.unsafe_get t.ev_at j in
  if ai < aj then true
  else if ai > aj then false
  else Array.unsafe_get t.ev_ord i < Array.unsafe_get t.ev_ord j

let due_reserve t =
  if t.due_len = Array.length t.due then begin
    let nd = Array.make (2 * t.due_len) (-1) in
    Array.blit t.due 0 nd 0 t.due_len;
    t.due <- nd
  end

(* Insert into the descending due buffer at the position keeping it
   sorted: binary search, then a blit. Only taken for events scheduled
   at or before [cur] (zero-delay reschedules, cascade leftovers). *)
let due_insert t id =
  due_reserve t;
  let lo = ref 0 and hi = ref t.due_len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if ev_lt t (Array.unsafe_get t.due mid) id then hi := mid
    else lo := mid + 1
  done;
  let pos = !lo in
  Array.blit t.due pos t.due (pos + 1) (t.due_len - pos);
  Array.unsafe_set t.due pos id;
  t.due_len <- t.due_len + 1

let occ_set t l s =
  let w = (l * occ_words) + (s lsr 5) in
  Array.unsafe_set t.occ w (Array.unsafe_get t.occ w lor (1 lsl (s land 31)))

let occ_clear t l s =
  let w = (l * occ_words) + (s lsr 5) in
  Array.unsafe_set t.occ w
    (Array.unsafe_get t.occ w land lnot (1 lsl (s land 31)))

let wheel_insert t id tick =
  let delta = tick - t.cur in
  if delta >= horizon then
    invalid_arg "Wheel.schedule: event beyond the 2^48-tick horizon";
  let l = ref 0 in
  let bound = ref slots_per_level in
  while delta >= !bound do
    incr l;
    bound := !bound lsl bits
  done;
  let l = !l in
  let s = (tick lsr (bits * l)) land slot_mask in
  let idx = (l * slots_per_level) + s in
  Array.unsafe_set t.ev_next id (Array.unsafe_get t.slots idx);
  Array.unsafe_set t.slots idx id;
  occ_set t l s

let schedule t ~at ~key ~kseq ~kind ~a ~b =
  if not (at >= 0.0) then invalid_arg "Wheel.schedule: negative or NaN time";
  if
    (key lsr 20) lor (kseq lsr kseq_bits) lor (a lsr ab_bits)
    lor (b lsr ab_bits)
    lor (kind lsr 2)
    <> 0
  then invalid_arg "Wheel.schedule: field out of packing range";
  if t.free < 0 then grow t;
  let id = t.free in
  t.free <- Array.unsafe_get t.ev_next id;
  Array.unsafe_set t.ev_at id at;
  Array.unsafe_set t.ev_ord id ((key lsl kseq_bits) lor kseq);
  Array.unsafe_set t.ev_meta id
    ((kind lsl (2 * ab_bits)) lor (a lsl ab_bits) lor b);
  t.live <- t.live + 1;
  if t.live > t.hw_live then t.hw_live <- t.live;
  let tick = int_of_float at in
  if tick <= t.cur then due_insert t id else wheel_insert t id tick

(* Sort the id range [lo, hi] of [t.due] into descending event order,
   in place and without allocating: median-of-three quicksort with an
   insertion-sort base case. Dense ticks put hundreds of events in one
   level-0 slot, where an insertion sort alone goes quadratic. *)
let insertion_range t lo hi =
  for i = lo + 1 to hi do
    let x = Array.unsafe_get t.due i in
    let j = ref (i - 1) in
    while !j >= lo && ev_lt t (Array.unsafe_get t.due !j) x do
      Array.unsafe_set t.due (!j + 1) (Array.unsafe_get t.due !j);
      decr j
    done;
    Array.unsafe_set t.due (!j + 1) x
  done

let rec qsort_range t lo hi =
  if hi - lo < 24 then insertion_range t lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    (* Median of three into [mid], descending endpoints. *)
    let a = Array.unsafe_get t.due lo
    and b = Array.unsafe_get t.due mid
    and c = Array.unsafe_get t.due hi in
    let pivot =
      if ev_lt t a b then if ev_lt t b c then b else if ev_lt t a c then c else a
      else if ev_lt t a c then a
      else if ev_lt t b c then c
      else b
    in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while ev_lt t pivot (Array.unsafe_get t.due !i) do
        incr i
      done;
      while ev_lt t (Array.unsafe_get t.due !j) pivot do
        decr j
      done;
      if !i <= !j then begin
        let tmp = Array.unsafe_get t.due !i in
        Array.unsafe_set t.due !i (Array.unsafe_get t.due !j);
        Array.unsafe_set t.due !j tmp;
        incr i;
        decr j
      end
    done;
    if lo < !j then qsort_range t lo !j;
    if !i < hi then qsort_range t !i hi
  end

(* Move one level-0 slot's list into the due buffer and restore
   descending order. The appended suffix is sorted in place; a new
   element that belongs inside the pre-existing (already sorted) due
   prefix then bubbles across the boundary — the prefix is almost
   always empty here, because [refill] only runs when the due buffer
   is drained (the exception: cascade leftovers inserted at [cur]). *)
let drain_level0 t s =
  let id = ref t.slots.(s) in
  t.slots.(s) <- -1;
  occ_clear t 0 s;
  let first_new = t.due_len in
  while !id >= 0 do
    let nxt = Array.unsafe_get t.ev_next !id in
    due_reserve t;
    Array.unsafe_set t.due t.due_len !id;
    t.due_len <- t.due_len + 1;
    id := nxt
  done;
  if first_new = 0 then qsort_range t 0 (t.due_len - 1)
  else
    (* Nonempty prefix: bubble each appended element with floor 0 so it
       can cross into the prefix (the pre-existing run is sorted). *)
    for i = max 1 first_new to t.due_len - 1 do
      let x = Array.unsafe_get t.due i in
      let j = ref (i - 1) in
      while !j >= 0 && ev_lt t (Array.unsafe_get t.due !j) x do
        Array.unsafe_set t.due (!j + 1) (Array.unsafe_get t.due !j);
        decr j
      done;
      Array.unsafe_set t.due (!j + 1) x
    done

(* Count-trailing-zeros of a non-zero 32-bit word via the classic
   De Bruijn multiply — branch-free, no loop. *)
let debruijn_tab =
  [|
    0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
    21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9;
  |]

let ctz32 x =
  debruijn_tab.((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

(* First occupied level-0 slot at or after [cur]'s position in the
   current 256-tick window, or -1. *)
let scan_level0 t =
  let base = t.cur land slot_mask in
  let w = ref (base lsr 5) in
  let x = ref (Array.unsafe_get t.occ !w land ((-1) lsl (base land 31))) in
  while !x = 0 && !w < occ_words - 1 do
    incr w;
    x := Array.unsafe_get t.occ !w
  done;
  if !x = 0 then -1 else (!w lsl 5) lor ctz32 !x

(* Rehash a higher-level slot's events now that [cur] has entered its
   window. Anything at or before [cur] (window-start ticks) goes
   straight to the due buffer. *)
let cascade t l s =
  let idx = (l * slots_per_level) + s in
  let id = ref t.slots.(idx) in
  if !id >= 0 then begin
    t.slots.(idx) <- -1;
    occ_clear t l s;
    while !id >= 0 do
      let nxt = Array.unsafe_get t.ev_next !id in
      let tick = int_of_float (Array.unsafe_get t.ev_at !id) in
      if tick <= t.cur then due_insert t !id else wheel_insert t !id tick;
      id := nxt
    done
  end

(* Advance [cur] to the start of the next level-l window and cascade
   the level-l slot now covering it. Crossing a level-(l+1) boundary
   recurses first, so the covering slot at every level is cascaded
   exactly when [cur] enters its window — the invariant that keeps
   wrapped entries from being missed. *)
let rec step_window t l =
  if l >= levels then
    failwith "Wheel: internal error: stepped past the top level";
  let w = bits * l in
  if (t.cur lsr w) land slot_mask = slot_mask then step_window t (l + 1)
  else t.cur <- ((t.cur lsr w) + 1) lsl w;
  cascade t l ((t.cur lsr w) land slot_mask)

let rec refill t =
  if t.live > t.due_len then begin
    let s = scan_level0 t in
    if s >= 0 then begin
      t.cur <- (t.cur land lnot slot_mask) lor s;
      drain_level0 t s
    end
    else if t.due_len = 0 then begin
      step_window t 1;
      refill t
    end
  end

(* Pop the earliest event and return its id, or -1 when empty. The id
   is recycled onto the free list immediately, but its fields stay
   readable until the next [schedule] call — callers copy what they
   need before scheduling follow-up events. *)
let pop t =
  if t.due_len = 0 then refill t;
  if t.due_len = 0 then -1
  else begin
    let len = t.due_len - 1 in
    t.due_len <- len;
    t.live <- t.live - 1;
    let id = Array.unsafe_get t.due len in
    Array.unsafe_set t.ev_next id t.free;
    t.free <- id;
    id
  end
