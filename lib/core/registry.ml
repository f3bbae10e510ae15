type entry = {
  name : string;
  make : Sim.Memory.t -> n:int -> Leaderelect.Le.t;
  make_mc :
    Backend.Atomic_mem.mem ->
    n:int ->
    Backend.Atomic_mem.ctx Leaderelect.Le.elect;
  make_flat : (n:int -> Flatsim.Machine.program) option;
  adversary : Sim.Sched.klass;
  steps : string;
  space : string;
  reference : string;
}

(* Both backends of an entry come from its one election functor: the
   simulator instance builds [make], the [Atomic.t] one [make_mc].
   [prefix] overrides the functor's default register-name prefix. *)
let entry ?prefix ?flat ~adversary ~steps ~space ~reference name
    (module F : Leaderelect.Le.S) =
  let module S = F (Backend.Sim_mem) in
  let module A = F (Backend.Atomic_mem) in
  let make mem ~n = S.elect (S.create ?name:prefix mem ~n) in
  let make_mc mem ~n = A.elect (A.create ?name:prefix mem ~n) in
  { name; make; make_mc; make_flat = flat; adversary; steps; space; reference }

let all =
  [
    entry "log*" (module Leaderelect.Le_logstar.Make)
      ~flat:(fun ~n -> Flatsim.Programs.logstar ~n)
      ~adversary:Sim.Sched.Location_oblivious
      ~steps:"O(log* k)"
      ~space:"O(n)"
      ~reference:"Theorem 2.3";
    entry "loglog" (module Leaderelect.Le_loglog.Make)
      ~adversary:Sim.Sched.Rw_oblivious
      ~steps:"O(log log k)"
      ~space:"O(n)"
      ~reference:"Theorem 2.4";
    entry "aa" (module Leaderelect.Aa.Make)
      ~adversary:Sim.Sched.Rw_oblivious
      ~steps:"O(log log n)"
      ~space:"O(n) (orig. O(n^3))"
      ~reference:"Alistarh-Aspnes 2011";
    entry "ratrace" (module Ratrace.Rr_classic.Make)
      ~adversary:Sim.Sched.Adaptive
      ~steps:"O(log k)"
      ~space:"Theta(n^3)"
      ~reference:"Alistarh et al. 2010";
    entry "ratrace-lean" (module Ratrace.Ratrace_lean.Make)
      ~adversary:Sim.Sched.Adaptive
      ~steps:"O(log k)"
      ~space:"Theta(n)"
      ~reference:"Section 3";
    entry "tournament" (module Leaderelect.Tournament.Make)
      ~flat:(fun ~n -> Flatsim.Programs.tournament ~n)
      ~adversary:Sim.Sched.Adaptive
      ~steps:"O(log n)"
      ~space:"Theta(n)"
      ~reference:"Afek et al. 1992";
    entry "combined-log*" (module Combined.Combine.Make (Leaderelect.Le_logstar.Make))
      ~prefix:"combined-log*"
      ~adversary:Sim.Sched.Location_oblivious
      ~steps:"O(log* k) / O(log k) adaptive"
      ~space:"Theta(n)"
      ~reference:"Corollary 4.2";
    entry "combined-loglog" (module Combined.Combine.Make (Leaderelect.Le_loglog.Make))
      ~prefix:"combined-loglog"
      ~adversary:Sim.Sched.Rw_oblivious
      ~steps:"O(log log k) / O(log k) adaptive"
      ~space:"Theta(n)"
      ~reference:"Corollary 4.2";
    entry "sift" (module Leaderelect.Sift_le.Make)
      ~flat:(fun ~n -> Flatsim.Programs.sift ~n)
      ~adversary:Sim.Sched.Rw_oblivious
      ~steps:"O(log log n + log n)"
      ~space:"Theta(n)"
      ~reference:"Alistarh-Aspnes 2011 + Afek et al. 1992";
    entry "poison" (module Leaderelect.Poison_le.Make)
      ~flat:(fun ~n -> Flatsim.Programs.poison ~n)
      ~adversary:Sim.Sched.Adaptive
      ~steps:"O(log log k) rounds"
      ~space:"Theta(n)"
      ~reference:"Alistarh-Gelashvili-Vladu 2015";
    entry "opt-space" (module Leaderelect.Opt_space_le.Make)
      ~adversary:Sim.Sched.Rw_oblivious
      ~steps:"O(log log k) rounds"
      ~space:"Theta(log n)"
      ~reference:"Giakkoupis-Helmi-Higham-Woelfel 2015";
    entry "elim" (module Leaderelect.Elim_le.Make)
      ~adversary:Sim.Sched.Adaptive
      ~steps:"O(k) worst, O(1) typical"
      ~space:"Theta(n)"
      ~reference:"Claim 3.1";
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let names () = List.map (fun e -> e.name) all

let lookup ~who name =
  match find name with
  | Some e -> e
  | None ->
      invalid_arg
        (Printf.sprintf "%s: unknown algorithm %S (expected one of: %s)" who
           name (String.concat ", " (names ())))

let flat () = List.filter (fun e -> Option.is_some e.make_flat) all

let flat_names () = List.map (fun e -> e.name) (flat ())
