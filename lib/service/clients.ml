(* Flat per-client state, flatsim-style: parallel scalar arrays indexed
   by client id, so client count scales without per-client records or
   GC pressure.

   [qnext] makes each client an intrusive FIFO-queue link: the driver
   keeps per-key head/tail indices and chains waiting clients through
   this array instead of boxing them into a [Queue.t]. *)

type t = {
  arrival : float array;
  key : int array;
  attempts : int array;
  stamp : int array;  (* last election round this client contended in *)
  state : int array;  (* 0 = pending, 1 = resolved *)
  qnext : int array;  (* intrusive wait-queue link, -1 = end *)
}

let schedule ~seed kind ~keys ~zipf_s n =
  if n < 1 then invalid_arg "Clients.schedule: need at least one client";
  let arrivals =
    Arrival.create kind (Sim.Rng.create (Sim.Rng.derive seed ~stream:10))
  in
  let zipf = Zipf.create ~n:keys ~s:zipf_s in
  let zrng = Sim.Rng.create (Sim.Rng.derive seed ~stream:11) in
  let t =
    {
      arrival = Array.make n 0.0;
      key = Array.make n 0;
      attempts = Array.make n 0;
      stamp = Array.make n (-1);
      state = Array.make n 0;
      qnext = Array.make n (-1);
    }
  in
  for i = 0 to n - 1 do
    t.arrival.(i) <- Arrival.next arrivals;
    t.key.(i) <- Zipf.sample zipf zrng
  done;
  t
