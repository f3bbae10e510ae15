type entry = {
  name : string;
  make : Sim.Memory.t -> n:int -> Leaderelect.Le.t;
  make_mc :
    (Backend.Atomic_mem.mem -> n:int -> Backend.Atomic_mem.ctx Leaderelect.Le.elect)
    option;
  make_flat : (n:int -> Flatsim.Machine.program) option;
  adversary : Sim.Sched.klass;
  steps : string;
  space : string;
  reference : string;
}

let all =
  [
    {
      name = "log*";
      make = Leaderelect.Le_logstar.make;
      make_mc = None;
      make_flat = Some (fun ~n -> Flatsim.Programs.logstar ~n);
      adversary = Sim.Sched.Location_oblivious;
      steps = "O(log* k)";
      space = "O(n)";
      reference = "Theorem 2.3";
    };
    {
      name = "loglog";
      make = Leaderelect.Le_loglog.make;
      make_mc = None;
      make_flat = None;
      adversary = Sim.Sched.Rw_oblivious;
      steps = "O(log log k)";
      space = "O(n)";
      reference = "Theorem 2.4";
    };
    {
      name = "aa";
      make = Leaderelect.Aa.make;
      make_mc = None;
      make_flat = None;
      adversary = Sim.Sched.Rw_oblivious;
      steps = "O(log log n)";
      space = "O(n) (orig. O(n^3))";
      reference = "Alistarh-Aspnes 2011";
    };
    {
      name = "ratrace";
      make = Leaderelect.Rr_le.make_original;
      make_mc = None;
      make_flat = None;
      adversary = Sim.Sched.Adaptive;
      steps = "O(log k)";
      space = "Theta(n^3)";
      reference = "Alistarh et al. 2010";
    };
    {
      name = "ratrace-lean";
      make = Leaderelect.Rr_le.make_lean;
      make_mc = Some Leaderelect.Rr_le.make_atomic;
      make_flat = None;
      adversary = Sim.Sched.Adaptive;
      steps = "O(log k)";
      space = "Theta(n)";
      reference = "Section 3";
    };
    {
      name = "tournament";
      make = Leaderelect.Tournament.make;
      make_mc = Some Leaderelect.Tournament.make_atomic;
      make_flat = Some (fun ~n -> Flatsim.Programs.tournament ~n);
      adversary = Sim.Sched.Adaptive;
      steps = "O(log n)";
      space = "Theta(n)";
      reference = "Afek et al. 1992";
    };
    {
      name = "combined-log*";
      make = Combined.Combine.make_logstar;
      make_mc = None;
      make_flat = None;
      adversary = Sim.Sched.Location_oblivious;
      steps = "O(log* k) / O(log k) adaptive";
      space = "Theta(n)";
      reference = "Corollary 4.2";
    };
    {
      name = "combined-loglog";
      make = Combined.Combine.make_loglog;
      make_mc = None;
      make_flat = None;
      adversary = Sim.Sched.Rw_oblivious;
      steps = "O(log log k) / O(log k) adaptive";
      space = "Theta(n)";
      reference = "Corollary 4.2";
    };
    {
      name = "sift";
      make = Leaderelect.Sift_le.make;
      make_mc = Some Leaderelect.Sift_le.make_atomic;
      make_flat = Some (fun ~n -> Flatsim.Programs.sift ~n);
      adversary = Sim.Sched.Rw_oblivious;
      steps = "O(log log n + log n)";
      space = "Theta(n)";
      reference = "Alistarh-Aspnes 2011 + Afek et al. 1992";
    };
    {
      name = "poison";
      make = Leaderelect.Poison_le.make;
      make_mc = Some Leaderelect.Poison_le.make_atomic;
      make_flat = Some (fun ~n -> Flatsim.Programs.poison ~n);
      adversary = Sim.Sched.Adaptive;
      steps = "O(log log k) rounds";
      space = "Theta(n)";
      reference = "Alistarh-Gelashvili-Vladu 2015";
    };
    {
      name = "opt-space";
      make = Leaderelect.Opt_space_le.make;
      make_mc = Some Leaderelect.Opt_space_le.make_atomic;
      make_flat = None;
      adversary = Sim.Sched.Rw_oblivious;
      steps = "O(log log k) rounds";
      space = "Theta(log n)";
      reference = "Giakkoupis-Helmi-Higham-Woelfel 2015";
    };
    {
      name = "elim";
      make = Leaderelect.Elim_le.make;
      make_mc = Some Leaderelect.Elim_le.make_atomic;
      make_flat = None;
      adversary = Sim.Sched.Adaptive;
      steps = "O(k) worst, O(1) typical";
      space = "Theta(n)";
      reference = "Claim 3.1";
    };
  ]

let find name = List.find_opt (fun e -> e.name = name) all

let names () = List.map (fun e -> e.name) all

let dual () = List.filter (fun e -> Option.is_some e.make_mc) all

let dual_names () = List.map (fun e -> e.name) (dual ())

let flat () = List.filter (fun e -> Option.is_some e.make_flat) all

let flat_names () = List.map (fun e -> e.name) (flat ())
