(* Hierarchical timing wheel over integer virtual-time ticks, with
   events stored by value in recycled fixed-size chunks. Schedule and
   advance are O(1) amortised and allocation-free in steady state: an
   event is three scalar writes into its slot's head chunk, and popping
   the next event is a bitmap scan plus a read from the due arrays. The
   driver's virtual clock only moves forward, which is what makes the
   wheel applicable where a general priority queue would be needed.

   Layout: [levels] wheels of 256 slots each; level [l] slot [s] holds
   events whose tick has [s] in bit-field [8l .. 8l+7] and whose delta
   from [cur] is in [256^l, 256^(l+1)). As [cur] crosses a level-l
   window boundary the covering level-(l+1) slot is cascaded — its
   events re-placed by value into lower levels — one boundary at a
   time, so a slot never mixes events from different rotations at
   drain time.

   Chunks: a slot is a list of chunks, each holding up to [chunk]
   events' (at, ord, meta) contiguously; only the head chunk may be
   partly full. Chunks come off a free list, and a new one is allocated
   only when that list is empty, so the pool follows the events in
   flight (at most one partial chunk per occupied slot) and growth
   never copies an event. Draining a slot copies its chunks
   sequentially into the due arrays — one link per chunk, not per
   event — and returns them to the free list.

   Packing: the driver's tie-break pair ([key], [kseq]) packs into one
   non-negative int ([key] in the top 20 payload bits, [kseq] in the
   low 42), so the shard-invariant total order (at, key, kseq) is the
   lexicographic pair (at, ord) — one float compare and one int
   compare. The payload ([kind], [a], [b]) packs into a second int.

   Ordering: ties on the same tick are broken by exact event time,
   then by [ord], in the due arrays, which hold the drained tick sorted
   descending (pop from the end). Events scheduled at or before [cur]
   are binary-inserted into them, preserving the total order even for
   zero-delay reschedules. Wheel events lie after [cur] and due events
   at or before it (a cascade's window-start events wait in the
   level-0 slot at [cur] only until the drain that follows it), so a
   slot is drained only once the due arrays are empty. *)

let bits = 8
let slots_per_level = 1 lsl bits
let slot_mask = slots_per_level - 1
let levels = 6
let horizon = 1 lsl (bits * levels)
let occ_words = slots_per_level / 32

(* Events per chunk: one link per 32 events on a drain, and at most 31
   idle event cells per occupied slot. *)
let chunk = 32

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
  (* Due arrays: the draining tick by value, descending (at, ord). *)
  mutable ev_at : float array;
  mutable ev_ord : int array;  (* key lsl 42 lor kseq *)
  mutable ev_meta : int array;  (* kind lsl 60 lor a lsl 30 lor b *)
  mutable due_len : int;
  (* Chunk pool, indexed by chunk id: chunk [c] holds [ch_len.(c)]
     events, times in [ch_at.(c)] and (ord, meta) pairs interleaved in
     [ch_om.(c)]; [ch_next] chains the slot lists and the free list. *)
  mutable ch_at : float array array;
  mutable ch_om : int array array;
  mutable ch_len : int array;
  mutable ch_next : int array;
  mutable nchunks : int;
  mutable free : int;
  mutable live : int;
  mutable hw_live : int;  (* high-water mark of [live] over the run *)
  slots : int array;  (* levels * 256 head chunks, -1 = empty *)
  occ : int array;  (* per-level occupancy bitmap, 8 x 32-bit words *)
  mutable cur : int;  (* current tick; never decreases *)
}

let key_of_ord ord = ord lsr kseq_bits
let kseq_of_ord ord = ord land max_kseq
let kind_of_meta meta = meta lsr (2 * ab_bits)
let a_of_meta meta = (meta lsr ab_bits) land max_ab
let b_of_meta meta = meta land max_ab

(* Append one fresh chunk to the pool and the free list. The id-indexed
   arrays double when full; they hold pointers and lengths, never
   events. *)
let alloc_chunk t =
  let c = t.nchunks in
  if c = Array.length t.ch_len then begin
    let n = 2 * c in
    let extend a zero =
      let b = Array.make n zero in
      Array.blit a 0 b 0 c;
      b
    in
    t.ch_at <- extend t.ch_at [||];
    t.ch_om <- extend t.ch_om [||];
    t.ch_len <- extend t.ch_len 0;
    t.ch_next <- extend t.ch_next (-1)
  end;
  t.ch_at.(c) <- Array.make chunk 0.0;
  t.ch_om.(c) <- Array.make (2 * chunk) 0;
  t.ch_next.(c) <- t.free;
  t.free <- c;
  t.nchunks <- c + 1

let create ?(capacity = 1024) () =
  let n = max 1 ((max 16 capacity + chunk - 1) / chunk) in
  let t =
    {
      ev_at = Array.make 64 0.0;
      ev_ord = Array.make 64 0;
      ev_meta = Array.make 64 0;
      due_len = 0;
      ch_at = Array.make n [||];
      ch_om = Array.make n [||];
      ch_len = Array.make n 0;
      ch_next = Array.make n (-1);
      nchunks = 0;
      free = -1;
      live = 0;
      hw_live = 0;
      slots = Array.make (levels * slots_per_level) (-1);
      occ = Array.make (levels * occ_words) 0;
      cur = 0;
    }
  in
  for _ = 1 to n do
    alloc_chunk t
  done;
  t

let live t = t.live

(* An empty wheel has every chunk on the free list, no slot list and
   empty due arrays, so only the clock and the mark need rewinding. *)
let reset t =
  if t.live > 0 then invalid_arg "Wheel.reset: events still scheduled";
  t.cur <- 0;
  t.hw_live <- 0

let now_tick t = t.cur
let high_water t = t.hw_live
let pool_capacity t = t.nchunks * chunk

(* Occupied (level, slot) pairs: a popcount over the occupancy bitmaps
   plus the due arrays standing in for the slot being drained. Distinct
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

(* Hot-path array accesses below use [unsafe_get]/[unsafe_set] (the
   flatsim convention): every index is an internal invariant — chunk
   ids come off the free list, chunk positions stay below [chunk],
   slot indices are masked, and due positions are bounds-managed by
   [due_reserve]. Event times read from an array are only ever stored
   or held in locals, never passed to a function, so they stay
   unboxed. *)

(* Room for [n] more due events; the arrays double as needed. *)
let due_reserve t n =
  let cap = Array.length t.ev_at in
  if t.due_len + n > cap then begin
    let ncap = ref (2 * cap) in
    while t.due_len + n > !ncap do
      ncap := 2 * !ncap
    done;
    let extend a zero =
      let b = Array.make !ncap zero in
      Array.blit a 0 b 0 t.due_len;
      b
    in
    t.ev_at <- extend t.ev_at 0.0;
    t.ev_ord <- extend t.ev_ord 0;
    t.ev_meta <- extend t.ev_meta 0
  end

(* Insert into the descending due arrays at the position keeping them
   sorted: binary search, then shift the earlier tail up by one. Only
   taken for events scheduled at or before [cur] (zero-delay
   reschedules), which land near the end, so the shift is short. *)
let due_insert t at ord meta =
  due_reserve t 1;
  let ea = t.ev_at and eo = t.ev_ord and em = t.ev_meta in
  let n = t.due_len in
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    let am = Array.unsafe_get ea mid in
    if am < at || (am = at && Array.unsafe_get eo mid < ord) then hi := mid
    else lo := mid + 1
  done;
  for i = n - 1 downto !lo do
    Array.unsafe_set ea (i + 1) (Array.unsafe_get ea i);
    Array.unsafe_set eo (i + 1) (Array.unsafe_get eo i);
    Array.unsafe_set em (i + 1) (Array.unsafe_get em i)
  done;
  Array.unsafe_set ea !lo at;
  Array.unsafe_set eo !lo ord;
  Array.unsafe_set em !lo meta;
  t.due_len <- n + 1

let occ_set t l s =
  let w = (l * occ_words) + (s lsr 5) in
  Array.unsafe_set t.occ w (Array.unsafe_get t.occ w lor (1 lsl (s land 31)))

let occ_clear t l s =
  let w = (l * occ_words) + (s lsr 5) in
  Array.unsafe_set t.occ w
    (Array.unsafe_get t.occ w land lnot (1 lsl (s land 31)))

let free_chunk t c =
  Array.unsafe_set t.ch_next c t.free;
  t.free <- c

(* The chunk with room for one more event at [tick] (>= [cur]; equal
   only in a cascade): the head of the tick's slot, or a fresh chunk
   pushed in front of it. *)
let slot_chunk t tick =
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
  let head = Array.unsafe_get t.slots idx in
  if head >= 0 && Array.unsafe_get t.ch_len head < chunk then head
  else begin
    if t.free < 0 then alloc_chunk t;
    let c = t.free in
    t.free <- Array.unsafe_get t.ch_next c;
    Array.unsafe_set t.ch_len c 0;
    Array.unsafe_set t.ch_next c head;
    Array.unsafe_set t.slots idx c;
    occ_set t l s;
    c
  end

let schedule t ~at ~key ~kseq ~kind ~a ~b =
  if not (at >= 0.0) then invalid_arg "Wheel.schedule: negative or NaN time";
  if
    (key lsr 20) lor (kseq lsr kseq_bits) lor (a lsr ab_bits)
    lor (b lsr ab_bits)
    lor (kind lsr 2)
    <> 0
  then invalid_arg "Wheel.schedule: field out of packing range";
  let ord = (key lsl kseq_bits) lor kseq
  and meta = (kind lsl (2 * ab_bits)) lor (a lsl ab_bits) lor b in
  let tick = int_of_float at in
  if tick <= t.cur then due_insert t at ord meta
  else begin
    let c = slot_chunk t tick in
    let n = Array.unsafe_get t.ch_len c in
    Array.unsafe_set (Array.unsafe_get t.ch_at c) n at;
    let om = Array.unsafe_get t.ch_om c in
    Array.unsafe_set om (2 * n) ord;
    Array.unsafe_set om ((2 * n) + 1) meta;
    Array.unsafe_set t.ch_len c (n + 1)
  end;
  t.live <- t.live + 1;
  if t.live > t.hw_live then t.hw_live <- t.live

(* Sort the range [lo, hi] of the due arrays into descending (at, ord)
   order, in place and without allocating: median-of-three quicksort
   with an insertion-sort base case. Dense ticks put thousands of
   events in one level-0 slot, where an insertion sort alone goes
   quadratic. The comparisons are written out on unboxed locals. *)
let insertion_range t lo hi =
  let ea = t.ev_at and eo = t.ev_ord and em = t.ev_meta in
  for i = lo + 1 to hi do
    let at = Array.unsafe_get ea i
    and ord = Array.unsafe_get eo i
    and meta = Array.unsafe_get em i in
    let j = ref (i - 1) in
    while
      !j >= lo
      &&
      let aj = Array.unsafe_get ea !j in
      aj < at || (aj = at && Array.unsafe_get eo !j < ord)
    do
      Array.unsafe_set ea (!j + 1) (Array.unsafe_get ea !j);
      Array.unsafe_set eo (!j + 1) (Array.unsafe_get eo !j);
      Array.unsafe_set em (!j + 1) (Array.unsafe_get em !j);
      decr j
    done;
    Array.unsafe_set ea (!j + 1) at;
    Array.unsafe_set eo (!j + 1) ord;
    Array.unsafe_set em (!j + 1) meta
  done

(* Due position [i] sorts after [j] (is earlier in event order). *)
let due_lt t i j =
  let ai = Array.unsafe_get t.ev_at i and aj = Array.unsafe_get t.ev_at j in
  ai < aj || (ai = aj && Array.unsafe_get t.ev_ord i < Array.unsafe_get t.ev_ord j)

let due_swap t i j =
  let ea = t.ev_at and eo = t.ev_ord and em = t.ev_meta in
  let at = Array.unsafe_get ea i
  and ord = Array.unsafe_get eo i
  and meta = Array.unsafe_get em i in
  Array.unsafe_set ea i (Array.unsafe_get ea j);
  Array.unsafe_set eo i (Array.unsafe_get eo j);
  Array.unsafe_set em i (Array.unsafe_get em j);
  Array.unsafe_set ea j at;
  Array.unsafe_set eo j ord;
  Array.unsafe_set em j meta

let rec qsort_range t lo hi =
  if hi - lo < 24 then insertion_range t lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    (* Median of three, as a position; its value is the pivot. *)
    let p =
      if due_lt t lo mid then
        if due_lt t mid hi then mid else if due_lt t lo hi then hi else lo
      else if due_lt t lo hi then lo
      else if due_lt t mid hi then hi
      else mid
    in
    let ea = t.ev_at and eo = t.ev_ord in
    let pa = Array.unsafe_get ea p and po = Array.unsafe_get eo p in
    let i = ref lo and j = ref hi in
    while !i <= !j do
      while
        let a = Array.unsafe_get ea !i in
        pa < a || (pa = a && po < Array.unsafe_get eo !i)
      do
        incr i
      done;
      while
        let a = Array.unsafe_get ea !j in
        a < pa || (a = pa && Array.unsafe_get eo !j < po)
      do
        decr j
      done;
      if !i <= !j then begin
        due_swap t !i !j;
        incr i;
        decr j
      end
    done;
    if lo < !j then qsort_range t lo !j;
    if !i < hi then qsort_range t !i hi
  end

(* Copy one level-0 slot's chunks into the empty due arrays, return
   the chunks to the free list, and sort. *)
let drain_level0 t s =
  let c = ref (Array.unsafe_get t.slots s) in
  Array.unsafe_set t.slots s (-1);
  occ_clear t 0 s;
  while !c >= 0 do
    let h = !c in
    let n = Array.unsafe_get t.ch_len h in
    due_reserve t n;
    let at = Array.unsafe_get t.ch_at h and om = Array.unsafe_get t.ch_om h in
    let ea = t.ev_at and eo = t.ev_ord and em = t.ev_meta in
    let d = t.due_len in
    for i = 0 to n - 1 do
      Array.unsafe_set ea (d + i) (Array.unsafe_get at i);
      Array.unsafe_set eo (d + i) (Array.unsafe_get om (2 * i));
      Array.unsafe_set em (d + i) (Array.unsafe_get om ((2 * i) + 1))
    done;
    t.due_len <- d + n;
    c := Array.unsafe_get t.ch_next h;
    free_chunk t h
  done;
  qsort_range t 0 (t.due_len - 1)

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

(* Re-place a higher-level slot's events by value now that [cur] has
   entered its window. They land in lower levels, so never back in this
   slot; those at the window's start tick land in the level-0 slot at
   [cur], beside any events that wrapped into it from the last window,
   and drain with them. Each chunk goes back on the free list before
   its events are re-placed, so a cascade needs no more chunks than its
   destinations hold. That is safe: if the chunk is taken again, the
   re-placement writes position [k] only after reading position
   [k' >= k] of it. *)
let cascade t l s =
  let idx = (l * slots_per_level) + s in
  let c = ref (Array.unsafe_get t.slots idx) in
  if !c >= 0 then begin
    Array.unsafe_set t.slots idx (-1);
    occ_clear t l s;
    while !c >= 0 do
      let h = !c in
      let at = Array.unsafe_get t.ch_at h and om = Array.unsafe_get t.ch_om h in
      let n = Array.unsafe_get t.ch_len h in
      c := Array.unsafe_get t.ch_next h;
      free_chunk t h;
      for i = 0 to n - 1 do
        let dst = slot_chunk t (int_of_float (Array.unsafe_get at i)) in
        let m = Array.unsafe_get t.ch_len dst in
        Array.unsafe_set (Array.unsafe_get t.ch_at dst) m (Array.unsafe_get at i);
        let dom = Array.unsafe_get t.ch_om dst in
        Array.unsafe_set dom (2 * m) (Array.unsafe_get om (2 * i));
        Array.unsafe_set dom ((2 * m) + 1) (Array.unsafe_get om ((2 * i) + 1));
        Array.unsafe_set t.ch_len dst (m + 1)
      done
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

(* Fill the empty due arrays with the next occupied level-0 slot,
   stepping (and cascading) window by window until one holds events. *)
let rec refill t =
  if t.live > 0 then begin
    let s = scan_level0 t in
    if s >= 0 then begin
      t.cur <- (t.cur land lnot slot_mask) lor s;
      drain_level0 t s
    end
    else begin
      step_window t 1;
      refill t
    end
  end

(* Pop the earliest event and return its position in the due arrays,
   or -1 when empty. The position's fields stay readable until the
   next [schedule] call — callers copy what they need before
   scheduling follow-up events. *)
let pop t =
  if t.due_len = 0 then refill t;
  if t.due_len = 0 then -1
  else begin
    let len = t.due_len - 1 in
    t.due_len <- len;
    t.live <- t.live - 1;
    len
  end
