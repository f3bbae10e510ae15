type 'i state =
  | Open of { round : int; inst : 'i; since : float }
  | Held of { round : int; owner : int; since : float }

module type ELECTION = sig
  type instance

  val fresh : key:int -> round:int -> instance
end

module Make (E : ELECTION) = struct
  type t = {
    rt_key : int;
    cell : E.instance state Atomic.t;
    forced : int Atomic.t;
  }

  let create ~key ~now =
    {
      rt_key = key;
      cell = Atomic.make (Open { round = 0; inst = E.fresh ~key ~round:0; since = now });
      forced = Atomic.make 0;
    }

  let key t = t.rt_key

  let state t = Atomic.get t.cell

  let round t =
    match Atomic.get t.cell with
    | Open { round; _ } | Held { round; _ } -> round

  let claim t ~round ~owner ~now =
    match Atomic.get t.cell with
    | Open { round = r; _ } as seen when r = round ->
        Atomic.compare_and_set t.cell seen (Held { round; owner; since = now })
    | _ -> false

  (* [release]/[force_expire] build the next round's instance before
     the CAS; a lost CAS drops it. The simulator driver's factory hands
     back its shard's one arena, which every round resets as it starts
     — safe because a shard is single-threaded and runs each round to
     completion inside one event, so no round is in flight on the arena
     when the next one, of this key or another, begins. The atomic
     factory allocates, so a dropped instance is garbage, nothing
     more. *)
  let install_next t ~round ~now seen =
    let next =
      Open { round = round + 1; inst = E.fresh ~key:t.rt_key ~round:(round + 1); since = now }
    in
    Atomic.compare_and_set t.cell seen next

  let release t ~round ~owner ~now =
    match Atomic.get t.cell with
    | Held { round = r; owner = o; _ } as seen when r = round && o = owner ->
        install_next t ~round ~now seen
    | _ -> false

  let force_expire t ~round ~now =
    match Atomic.get t.cell with
    | (Open { round = r; _ } | Held { round = r; _ }) as seen when r = round ->
        let ok = install_next t ~round ~now seen in
        if ok then Atomic.incr t.forced;
        ok
    | _ -> false

  let expiries t = Atomic.get t.forced
end
