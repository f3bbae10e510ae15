(* The arrival stream: one client at a time, drawn on demand, so nothing
   about a client is held before it arrives. Arrival times come from
   derive stream 10 and keys from stream 11; the two streams are
   independent, so drawing them interleaved yields the same values as
   drawing all arrivals and then all keys. *)

type time = { mutable at : float }

type t = {
  arrivals : Arrival.t;
  zipf : Zipf.t;
  zrng : Sim.Rng.t;
  clients : int;
  mutable index : int;
  time : time;
  mutable key : int;
}

let create ~seed kind ~keys ~zipf_s n =
  if n < 1 then invalid_arg "Clients.create: need at least one client";
  let arrivals =
    Arrival.create kind (Sim.Rng.create (Sim.Rng.derive seed ~stream:10))
  in
  let zipf = Zipf.create ~n:keys ~s:zipf_s in
  let zrng = Sim.Rng.create (Sim.Rng.derive seed ~stream:11) in
  let at = Arrival.next arrivals in
  let key = Zipf.sample zipf zrng in
  { arrivals; zipf; zrng; clients = n; index = 0; time = { at }; key }

let advance t =
  t.index <- t.index + 1;
  if t.index < t.clients then begin
    t.time.at <- Arrival.next t.arrivals;
    t.key <- Zipf.sample t.zipf t.zrng
  end
