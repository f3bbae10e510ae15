type kind =
  | Poisson of { rate : float }
  | Bursty of { rate : float; burst_len : float; idle_len : float; boost : float }

let kind_name = function Poisson _ -> "poisson" | Bursty _ -> "bursty"

let describe = function
  | Poisson { rate } -> Printf.sprintf "poisson(rate=%g)" rate
  | Bursty { rate; burst_len; idle_len; boost } ->
      Printf.sprintf "bursty(rate=%g,burst=%g,idle=%g,boost=%g)" rate burst_len
        idle_len boost

let validate = function
  | Poisson { rate } ->
      if not (Float.is_finite rate && rate > 0.0) then
        invalid_arg "Arrival: rate must be finite and > 0"
  | Bursty { rate; burst_len; idle_len; boost } ->
      if not (Float.is_finite rate && rate > 0.0) then
        invalid_arg "Arrival: rate must be finite and > 0";
      if not (Float.is_finite burst_len && burst_len > 0.0) then
        invalid_arg "Arrival: burst_len must be finite and > 0";
      if not (Float.is_finite idle_len && idle_len >= 0.0) then
        invalid_arg "Arrival: idle_len must be finite and >= 0";
      if not (Float.is_finite boost && boost >= 1.0) then
        invalid_arg "Arrival: boost must be finite and >= 1"

type t = { kind : kind; rng : Sim.Rng.t; mutable now : float }

let create kind rng =
  validate kind;
  { kind; rng; now = 0.0 }

let exp_gap rng rate = -.log (1.0 -. Sim.Rng.float rng) /. rate

(* Piecewise-constant-rate Poisson process: draw an exponential gap at
   the rate in force now; if it crosses the next rate boundary, advance
   to the boundary and redraw (the memorylessness of the exponential
   makes this exact, not an approximation). *)
let next t =
  match t.kind with
  | Poisson { rate } ->
      t.now <- t.now +. exp_gap t.rng rate;
      t.now
  | Bursty { rate; burst_len; idle_len; boost } ->
      let cycle = burst_len +. idle_len in
      let rec draw () =
        let pos = Float.rem t.now cycle in
        let in_burst = pos < burst_len in
        let r = if in_burst then rate *. boost else rate in
        let boundary = if in_burst then burst_len -. pos else cycle -. pos in
        let gap = exp_gap t.rng r in
        if gap <= boundary || idle_len = 0.0 then begin
          t.now <- t.now +. gap;
          t.now
        end
        else begin
          t.now <- t.now +. boundary;
          draw ()
        end
      in
      draw ()
