type t = {
  arr : int array;
  mutable base : int;
  mutable n : int;
  pos : int array;
}

let reset r k =
  if k < 0 || k > Array.length r.arr then
    invalid_arg "Running.reset: count out of range";
  r.base <- 0;
  r.n <- k;
  for pid = 0 to k - 1 do
    Array.unsafe_set r.arr pid pid;
    Array.unsafe_set r.pos pid pid
  done

let create capacity =
  let arr = Array.make capacity 0 and pos = Array.make capacity 0 in
  let r = { arr; base = 0; n = 0; pos } in
  reset r capacity;
  r

let length r = r.n

let get r i =
  if i < 0 || i >= r.n then invalid_arg "Running.get: index out of range";
  Array.unsafe_get r.arr (r.base + i)

(* A slot of the window only ever holds a running pid, and a removed
   pid never comes back, so a stale [pos] entry cannot pass. *)
let mem r pid =
  pid >= 0 && pid < Array.length r.pos
  &&
  let i = Array.unsafe_get r.pos pid in
  i >= r.base && i < r.base + r.n && Array.unsafe_get r.arr i = pid

(* The window's top never rises, so [arr] needs no headroom. (Measured
   in the flat kernel: an O(1) rank/select bitmap loses even with a
   branch-free SWAR select, its extra ~15 ns landing on the serial
   draw -> resume chain while the shift is throughput work the core
   hides; splitting the loop into a pos pass and a move pass is slower
   too.) *)
let remove r pid =
  if not (mem r pid) then invalid_arg "Running.remove: pid is not running";
  let arr = r.arr and pos = r.pos in
  let i = Array.unsafe_get pos pid and base = r.base in
  let hi = base + r.n - 1 in
  if i - base < hi - i then begin
    for j = i - 1 downto base do
      let p = Array.unsafe_get arr j in
      Array.unsafe_set arr (j + 1) p;
      Array.unsafe_set pos p (j + 1)
    done;
    r.base <- base + 1
  end
  else
    for j = i to hi - 1 do
      let p = Array.unsafe_get arr (j + 1) in
      Array.unsafe_set arr j p;
      Array.unsafe_set pos p j
    done;
  r.n <- r.n - 1

let filter f r =
  let kept = Array.of_list (List.filter f (List.init r.n (get r))) in
  let pos = Array.make (Array.length r.pos) 0 in
  Array.iteri (fun i pid -> pos.(pid) <- i) kept;
  { arr = kept; base = 0; n = Array.length kept; pos }
