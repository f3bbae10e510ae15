type t =
  | Immediate
  | Exp of { base : float; cap : float }
  | Rand of { max : float }

let describe = function
  | Immediate -> "immediate"
  | Exp { base; cap } -> Printf.sprintf "exp(base=%g,cap=%g)" base cap
  | Rand { max } -> Printf.sprintf "rand(max=%g)" max

let validate = function
  | Immediate -> ()
  | Exp { base; cap } ->
      if not (Float.is_finite base && base > 0.0) then
        invalid_arg "Backoff: base must be finite and > 0";
      if not (Float.is_finite cap && cap >= base) then
        invalid_arg "Backoff: cap must be finite and >= base"
  | Rand { max } ->
      if not (Float.is_finite max && max >= 1.0) then
        invalid_arg "Backoff: max must be finite and >= 1"

(* Jitter is deterministic: the (client, attempt) pair mints its own
   splitmix stream via two Rng.derive hops, so a retry schedule is a
   pure function of (policy, seed, client, attempt) — no hidden mutable
   RNG state shared between clients, hence no cross-client coupling and
   bit-reproducible backoff under any execution order. *)
let jitter_u ~seed ~client ~attempt =
  (* One fused cross-module call: equals
     [float_of_seed (derive (derive seed ~stream:client) ~stream:attempt)]
     bit-for-bit, but the intermediate sub-seeds stay unboxed — backoff
     jitter is on the driver's per-event hot path and must not allocate. *)
  Sim.Rng.jitter_of_seed seed ~client ~attempt

(* The comparisons below are monomorphic: Stdlib's [max] is
   polymorphic (a [compare_val] C call on ints), and [Float.min] /
   [Float.max] call [caml_signbit]. For a validated policy every
   operand is finite or [infinity] and never [-0.0], so they give the
   same floats (pinned bit for bit by test_service). *)
let delay t ~seed ~client ~attempt =
  let attempt = if attempt < 1 then 1 else attempt in
  match t with
  (* A zero delay would re-poll a still-held key at the same instant
     forever; one tick is the smallest forward step. *)
  | Immediate -> 1.0
  | Exp { base; cap } ->
      (* [base * 2^(attempt-1)] capped: a shift-and-convert rather than
         [Float.pow] (a C call on the per-event hot path); attempts
         past 62 doublings are far beyond any finite cap. *)
      let raw =
        if attempt >= 63 then cap
        else
          let x = base *. float_of_int (1 lsl (attempt - 1)) in
          if x < cap then x else cap
      in
      let u = jitter_u ~seed ~client ~attempt in
      (* Decorrelate retries: uniform in [raw/2, raw). *)
      let d = (raw /. 2.0) +. (u *. raw /. 2.0) in
      if d > 1.0 then d else 1.0
  | Rand { max } ->
      let u = jitter_u ~seed ~client ~attempt in
      1.0 +. (u *. (max -. 1.0))
