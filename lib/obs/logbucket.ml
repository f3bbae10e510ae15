(* The log-bucketed histogram. See logbucket.mli for the scheme. *)

let sub = 32
let octaves = 52
let count = 1 + (octaves * sub)

(* Bucket 0 is [0, 1) (and any negative or NaN input); bucket
   [1 + oct*sub + s] covers [2^oct * (1 + s/sub), 2^oct * (1 +
   (s+1)/sub)). Monotone in the value. A v >= 1 is 2^oct * (1 + f)
   with f in [0, 1): its exponent field is oct + 1023 and the top five
   bits of its mantissa are s = floor (32 f). Read off the bits, so
   nothing is boxed ([Float.frexp] returns a tuple). *)
let of_value v =
  if not (v >= 1.0) then 0
  else begin
    let bits = Int64.bits_of_float v in
    let oct = Int64.to_int (Int64.shift_right_logical bits 52) - 1023 in
    if oct >= octaves then count - 1
    else
      1 + (oct * sub)
      + (Int64.to_int (Int64.shift_right_logical bits 47) land (sub - 1))
  end

let lower i =
  if i <= 0 then 0.0
  else begin
    let i = Int.min i (count - 1) in
    let oct = (i - 1) / sub and s = (i - 1) mod sub in
    Float.ldexp (1.0 +. (float_of_int s /. float_of_int sub)) oct
  end

let upper i =
  if i < 0 then 0.0
  else if i = 0 then 1.0
  else if i >= count - 1 then infinity
  else begin
    let oct = (i - 1) / sub and s = (i - 1) mod sub in
    if s = sub - 1 then Float.ldexp 1.0 (oct + 1)
    else Float.ldexp (1.0 +. (float_of_int (s + 1) /. float_of_int sub)) oct
  end

let midpoint i =
  if i <= 0 then 0.5
  else if i >= count - 1 then lower (count - 1)
  else (lower i +. upper i) /. 2.0

type t = {
  mutable counts : int array;  (* covers the largest bucket seen *)
  mutable n : int;
  acc : float array;  (* [| sum; max |]: a float array stores unboxed *)
}

let create () = { counts = [||]; n = 0; acc = [| 0.0; 0.0 |] }
let n t = t.n
let sum t = t.acc.(0)
let max t = t.acc.(1)

let resize t len =
  let c = Array.make len 0 in
  Array.blit t.counts 0 c 0 (Array.length t.counts);
  t.counts <- c

(* Double the counts array until it covers bucket [b]. *)
let grow t b =
  let cap = ref (Int.max 16 (Array.length t.counts)) in
  while !cap <= b do
    cap := 2 * !cap
  done;
  resize t (Int.min count !cap)

let observe t v =
  let b = of_value v in
  if b >= Array.length t.counts then grow t b;
  t.counts.(b) <- t.counts.(b) + 1;
  if t.n = 0 || v > t.acc.(1) then t.acc.(1) <- v;
  t.n <- t.n + 1;
  t.acc.(0) <- t.acc.(0) +. v

let merge_into ~into src =
  if src.n > 0 then begin
    let len = Array.length src.counts in
    if len > Array.length into.counts then resize into len;
    for b = 0 to len - 1 do
      into.counts.(b) <- into.counts.(b) + src.counts.(b)
    done;
    if into.n = 0 || src.acc.(1) > into.acc.(1) then
      into.acc.(1) <- src.acc.(1);
    into.n <- into.n + src.n;
    into.acc.(0) <- into.acc.(0) +. src.acc.(0)
  end

let copy t =
  let hi = ref (Array.length t.counts) in
  while !hi > 0 && t.counts.(!hi - 1) = 0 do
    decr hi
  done;
  { counts = Array.sub t.counts 0 !hi; n = t.n; acc = Array.copy t.acc }

(* Nearest-rank: the sample of rank [ceil (p n) - 1] lies in the first
   bucket whose running count passes that rank. *)
let percentile t p =
  if t.n = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p *. float_of_int t.n)) - 1 in
    let rank = Int.min (t.n - 1) (Int.max 0 rank) in
    let rec walk b acc =
      let acc = acc + t.counts.(b) in
      if acc > rank then Float.min (midpoint b) (max t) else walk (b + 1) acc
    in
    walk 0 0
  end
