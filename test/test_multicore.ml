(* Tests for the real-multicore (Atomic/Domain) backend.

   These exercise the algorithms across true parallel domains; the
   adversary is the OS scheduler, so assertions are safety properties
   plus single-run liveness. Domain counts are kept small.

   Contender identity is everywhere a [slot] in [0 .. n-1]; algorithms
   that need nonzero splitter ids derive them internally. *)

let checki = Alcotest.(check int)
let checkb = Alcotest.(check bool)

(* Run [k] domains, each evaluating [body slot rng], and return results. *)
let run_domains ~k body =
  let domains =
    List.init k (fun slot ->
        Domain.spawn (fun () ->
            let rng =
              Random.State.make [| slot * 7919; 42; Hashtbl.hash slot |]
            in
            body slot rng))
  in
  List.map Domain.join domains

let count_true results = List.length (List.filter Fun.id results)

let ctx ?rng slot = Backend.Atomic_mem.ctx ?rng ~slot ()

(* {1 Primitives, instantiated over Atomic_mem directly} *)

module Le2 = Primitives.Le2.Make (Backend.Atomic_mem)
module Splitter = Primitives.Splitter.Make (Backend.Atomic_mem)

let fresh_le2 () = Le2.create (Backend.Atomic_mem.create ())
let le2_elect le rng ~slot = Le2.elect le (ctx ~rng slot) ~port:slot

let test_mc_le2_single_thread () =
  (* Sequential: first caller wins, second loses. *)
  for _ = 1 to 50 do
    let le = fresh_le2 () in
    let rng = Random.State.make [| 1 |] in
    let a = le2_elect le rng ~slot:0 in
    let b = le2_elect le rng ~slot:1 in
    checkb "first wins" true a;
    checkb "second loses" false b
  done

let test_mc_le2_parallel () =
  for _ = 1 to 100 do
    let le = fresh_le2 () in
    let results = run_domains ~k:2 (fun slot rng -> le2_elect le rng ~slot) in
    checki "exactly one winner" 1 (count_true results)
  done

let test_mc_le2_solo () =
  let le = fresh_le2 () in
  let rng = Random.State.make [| 3 |] in
  checkb "solo wins" true (le2_elect le rng ~slot:1)

let fresh_splitter () = Splitter.create (Backend.Atomic_mem.create ())

let test_mc_splitter_solo () =
  let sp = fresh_splitter () in
  checkb "solo stops" true (Splitter.split sp (ctx 5) = Primitives.Splitter.S)

let test_mc_splitter_parallel () =
  for _ = 1 to 100 do
    let sp = fresh_splitter () in
    let results =
      run_domains ~k:3 (fun slot _rng -> Splitter.split sp (ctx slot))
    in
    let count v = List.length (List.filter (fun r -> r = v) results) in
    checkb "at most one S" true (count Primitives.Splitter.S <= 1);
    checkb "not all L" true (count Primitives.Splitter.L <= 2);
    checkb "not all R" true (count Primitives.Splitter.R <= 2)
  done

let test_mc_tas_le2_pair () =
  for _ = 1 to 100 do
    let tas =
      Primitives.Atomic_tas.create (fun mem ->
          let duel = Le2.create mem in
          fun c -> Le2.elect duel c ~port:(Backend.Atomic_mem.self c))
    in
    let results =
      run_domains ~k:2 (fun slot rng -> Primitives.Atomic_tas.apply tas rng ~slot)
    in
    checki "exactly one 0" 1 (List.length (List.filter (fun r -> r = 0) results))
  done

(* {1 Every registry entry, through its [make_mc]} *)

let make_le (e : Rtas.Registry.entry) ~n =
  e.Rtas.Registry.make_mc (Backend.Atomic_mem.create ()) ~n

let elect le rng ~slot = le (ctx ~rng slot)

let make_tas (e : Rtas.Registry.entry) ~n () =
  Primitives.Atomic_tas.create (fun mem -> e.Rtas.Registry.make_mc mem ~n)

let test_race e ~k ~trials () =
  for _ = 1 to trials do
    let le = make_le e ~n:k in
    let results = run_domains ~k (fun slot rng -> elect le rng ~slot) in
    checki "exactly one winner" 1 (count_true results)
  done

let test_solo e () =
  let le = make_le e ~n:8 in
  checkb "solo wins" true (elect le (Random.State.make [| 21 |]) ~slot:3)

let test_sequential e () =
  let le = make_le e ~n:4 in
  let rng = Random.State.make [| 23 |] in
  let results = List.init 4 (fun slot -> elect le rng ~slot) in
  checki "one winner" 1 (count_true results)

let test_negative_slot e () =
  let le = make_le e ~n:4 in
  Alcotest.check_raises "slot -1 rejected"
    (Invalid_argument "Atomic_mem.ctx: slot -1 is negative") (fun () ->
      ignore (elect le (Random.State.make [| 25 |]) ~slot:(-1)))

let entry_cases (e : Rtas.Registry.entry) =
  ( e.Rtas.Registry.name,
    [
      Alcotest.test_case "parallel" `Quick (test_race e ~k:4 ~trials:50);
      Alcotest.test_case "larger crowd" `Quick (test_race e ~k:8 ~trials:10);
      Alcotest.test_case "solo" `Quick (test_solo e);
      Alcotest.test_case "sequential" `Quick (test_sequential e);
      Alcotest.test_case "negative slot" `Quick (test_negative_slot e);
    ] )

let test_mc_tas_unique_zero make () =
  for _ = 1 to 50 do
    let tas = make () in
    let results =
      run_domains ~k:4 (fun slot rng -> Primitives.Atomic_tas.apply tas rng ~slot)
    in
    let zeros = List.length (List.filter (fun r -> r = 0) results) in
    checki "exactly one 0" 1 zeros;
    checki "others get 1" 3 (List.length (List.filter (fun r -> r = 1) results))
  done

let tas_impls =
  List.map
    (fun (e : Rtas.Registry.entry) -> (e.Rtas.Registry.name, make_tas e ~n:4))
    Rtas.Registry.all
  @ [ ("native", Primitives.Atomic_tas.native) ]

let test_mc_tas_sequential_semantics () =
  let tas = make_tas (Option.get (Rtas.Registry.find "tournament")) ~n:4 () in
  let rng = Random.State.make [| 11 |] in
  let apply slot = Primitives.Atomic_tas.apply tas rng ~slot in
  checki "first gets 0" 0 (apply 0);
  checki "second gets 1" 1 (apply 1);
  checki "third gets 1" 1 (apply 2)

(* --- Differential backend test ---------------------------------------

   Both backends of a functorized election are the same algorithm, so
   under any schedule in which each contender runs to completion before
   the next starts, the outcome vector is determined by the contender
   order alone: the first contender meets only fresh splitters / duels
   and wins, everyone after it loses to state the winner left behind —
   whatever either backend's coins say. The simulator run under a
   run-to-completion adversary must therefore produce bit-for-bit the
   outcome vector of the Atomic_mem run executed sequentially in the
   same order, for every seed and every contender permutation. *)

let permutation rng k =
  let order = Array.init k Fun.id in
  for i = k - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let tmp = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- tmp
  done;
  order

(* Schedule the runnable pid that comes earliest in [order]; since a
   scheduled process stays the earliest until it finishes, this runs
   order.(0) to completion, then order.(1), etc. *)
let seq_order_adversary order =
  let rank = Array.make (Array.length order) 0 in
  Array.iteri (fun i pid -> rank.(pid) <- i) order;
  Sim.Adversary.adaptive "seq-order" (fun v ->
      let r = v.Sim.Sched.runnable in
      let best = ref (Sim.Running.get r 0) in
      for i = 1 to Sim.Running.length r - 1 do
        let pid = Sim.Running.get r i in
        if rank.(pid) < rank.(!best) then best := pid
      done;
      !best)

let sim_outcomes entry ~k ~order ~seed =
  let mem = Sim.Memory.create () in
  let le = entry.Rtas.Registry.make mem ~n:k in
  let sched = Sim.Sched.create ~seed (Leaderelect.Le.programs le ~k) in
  Sim.Sched.run sched (seq_order_adversary order);
  Array.map (fun r -> r = Some 1) (Sim.Sched.results sched)

let atomic_outcomes entry ~k ~order ~seed =
  let le = make_le entry ~n:k in
  let results = Array.make k false in
  Array.iter
    (fun slot ->
      let rng = Random.State.make [| Int64.to_int seed; slot; 0x5EED |] in
      results.(slot) <- elect le rng ~slot)
    order;
  results

let test_differential entry () =
  let k = 4 in
  for seed_int = 1 to 120 do
    let seed = Int64.of_int (seed_int * 7919) in
    let order = permutation (Random.State.make [| seed_int; 0xD1FF |]) k in
    let sim = sim_outcomes entry ~k ~order ~seed in
    let atomic = atomic_outcomes entry ~k ~order ~seed in
    checkb "backends agree" true (sim = atomic);
    let winners a = Array.to_list a |> List.filter Fun.id |> List.length in
    checki "sim: exactly one winner" 1 (winners sim);
    checki "atomic: exactly one winner" 1 (winners atomic);
    checkb "first in order wins" true atomic.(order.(0))
  done

let differential_cases =
  List.map
    (fun (e : Rtas.Registry.entry) ->
      Alcotest.test_case e.Rtas.Registry.name `Quick (test_differential e))
    Rtas.Registry.all

let test_registry_backends_present () =
  List.iter
    (fun (e : Rtas.Registry.entry) ->
      let mem = Backend.Atomic_mem.create () in
      let (_ : Backend.Atomic_mem.ctx Leaderelect.Le.elect) =
        e.Rtas.Registry.make_mc mem ~n:4
      in
      checkb "allocates registers" true (Backend.Atomic_mem.allocated mem > 0))
    Rtas.Registry.all

(* {1 Lazy tables: racing first access}

   A table builds an entry on its first [get], from whichever domain
   gets there first; losers of the publishing CAS adopt the winner's
   node. Every domain must see the physically same entry, and the
   declared register count must not move. *)

let splitter_table () =
  let mem = Backend.Atomic_mem.create () in
  ( mem,
    Backend.Atomic_mem.table mem ~name:"race" 1000 (fun _ ->
        Splitter.create mem) )

let test_lazy_racing_first_access () =
  let stride =
    let mem = Backend.Atomic_mem.create () in
    ignore (Splitter.create mem);
    Backend.Atomic_mem.allocated mem
  in
  for round = 1 to 50 do
    let mem, t = splitter_table () in
    let declared = Backend.Atomic_mem.allocated mem in
    checki "every entry declared" (1000 * stride) declared;
    let i = (round * 37) mod 1000 in
    (* All four domains wait at a barrier, then get at once. *)
    let arrived = Atomic.make 0 in
    let nodes =
      run_domains ~k:4 (fun _ _ ->
          Atomic.incr arrived;
          while Atomic.get arrived < 4 do
            Domain.cpu_relax ()
          done;
          Backend.Atomic_mem.get t i)
    in
    let first = List.hd nodes in
    checkb "every domain got the same node" true
      (List.for_all (fun x -> x == first) nodes);
    checkb "later gets return it too" true
      (Backend.Atomic_mem.get t i == first);
    checki "allocated unchanged" declared (Backend.Atomic_mem.allocated mem)
  done;
  (* Entry 0 allocates one register, every later entry two: caught when
     the entry is first built, not when the table is created. *)
  let mem = Backend.Atomic_mem.create () in
  let t =
    Backend.Atomic_mem.table mem ~name:"bad" 8 (fun i ->
        let r = Backend.Atomic_mem.alloc mem ~name:"r" in
        if i > 0 then ignore (Backend.Atomic_mem.alloc mem ~name:"extra");
        r)
  in
  Alcotest.check_raises "lazy build with the wrong stride"
    (Invalid_argument
       "Atomic_mem.table bad: entry 5 allocated 2 registers but entry 0 \
        allocated 1") (fun () -> ignore (Backend.Atomic_mem.get t 5));
  checki "a failed build declares nothing" 8 (Backend.Atomic_mem.allocated mem)

(* Classic RatRace declares Theta(n^3) registers; on atomics it must
   cost only the nodes a run touches. *)
let test_ratrace_lazy_build () =
  let e = Option.get (Rtas.Registry.find "ratrace") in
  (* [Gc.minor_words ()] is exact; the [Gc.counters] minor count only
     moves at a minor collection. *)
  let words () =
    let _, promoted, major = Gc.counters () in
    Gc.minor_words () +. major -. promoted
  in
  let before = words () in
  let mem = Backend.Atomic_mem.create () in
  let le = e.Rtas.Registry.make_mc mem ~n:64 in
  let built = words () -. before in
  checki "declares the simulator's count" 3_170_306
    (Backend.Atomic_mem.allocated mem);
  checkb
    (Printf.sprintf "building allocates %.0f words, under 5 MB" built)
    true
    (built *. float_of_int (Sys.word_size / 8) < 5e6);
  let won = run_domains ~k:4 (fun slot rng -> le (ctx ~rng slot)) in
  checki "one winner" 1 (count_true won);
  checki "allocated unchanged by the run" 3_170_306
    (Backend.Atomic_mem.allocated mem)

let () =
  Alcotest.run "multicore"
    ([
       ( "le2",
         [
           Alcotest.test_case "sequential" `Quick test_mc_le2_single_thread;
           Alcotest.test_case "parallel" `Quick test_mc_le2_parallel;
           Alcotest.test_case "solo" `Quick test_mc_le2_solo;
         ] );
       ( "splitter",
         [
           Alcotest.test_case "solo" `Quick test_mc_splitter_solo;
           Alcotest.test_case "parallel" `Quick test_mc_splitter_parallel;
         ] );
     ]
    @ List.map entry_cases Rtas.Registry.all
    @ [
        ( "tas",
          List.map
            (fun (name, make) ->
              Alcotest.test_case name `Quick (test_mc_tas_unique_zero make))
            tas_impls
          @ [
              Alcotest.test_case "le2 pair" `Quick test_mc_tas_le2_pair;
              Alcotest.test_case "sequential semantics" `Quick
                test_mc_tas_sequential_semantics;
            ] );
        ("differential", differential_cases);
        ( "registry",
          [
            Alcotest.test_case "dual backends" `Quick
              test_registry_backends_present;
          ] );
        ( "lazy table",
          [
            Alcotest.test_case "racing first access" `Quick
              test_lazy_racing_first_access;
            Alcotest.test_case "ratrace builds lazily" `Quick
              test_ratrace_lazy_build;
          ] );
      ])
