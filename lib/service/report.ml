type counts = {
  clients : int;
  completed : int;
  deadline_exceeded : int;
  crashed_clients : int;
  holder_crashes : int;
  forced_expiries : int;
  shed : int;
  retries : int;
  rounds : int;
  stale_wins : int;
}

type latency = {
  l_mode : string;  (* "exact" or "hist" *)
  l_n : int;
  l_mean : float;
  l_p50 : float;
  l_p95 : float;
  l_p99 : float;
  l_p999 : float;
  l_max : float;
}

type t = {
  backend : string;
  algorithm : string;
  keys : int;
  zipf_s : float;
  arrival : string;
  backoff : string;
  deadline : float;
  hold : float;
  crash_prob : float;
  workers : int;
  seed : int64;
  duration : float;
  throughput : float;
  counts : counts;
  latency : latency option;
  livelocked : bool;
  diagnosis : string option;
}

let latency_of_histo h =
  match Histo.snapshot h with
  | None -> None
  | Some s ->
      Some
        {
          l_mode = Histo.mode_name h;
          l_n = s.Histo.s_n;
          l_mean = s.Histo.s_mean;
          l_p50 = s.Histo.s_p50;
          l_p95 = s.Histo.s_p95;
          l_p99 = s.Histo.s_p99;
          l_p999 = s.Histo.s_p999;
          l_max = s.Histo.s_max;
        }

(* Every client must end in exactly one bucket; the drivers assert this
   via [balanced] before reporting. Under the driver's retry-on-shed
   mode a shed is a non-terminal rejection event (the client retries),
   so it leaves the partition. *)
let balanced ?(shed_terminal = true) c =
  c.completed + c.deadline_exceeded + c.crashed_clients
  + (if shed_terminal then c.shed else 0)
  = c.clients

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (function
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let to_json t =
  let b = Buffer.create 1024 in
  let add = Buffer.add_string b in
  add "{\n";
  add (Printf.sprintf "  \"backend\": \"%s\",\n" (json_escape t.backend));
  add (Printf.sprintf "  \"algorithm\": \"%s\",\n" (json_escape t.algorithm));
  add (Printf.sprintf "  \"keys\": %d,\n" t.keys);
  add (Printf.sprintf "  \"zipf_s\": %g,\n" t.zipf_s);
  add (Printf.sprintf "  \"arrival\": \"%s\",\n" (json_escape t.arrival));
  add (Printf.sprintf "  \"backoff\": \"%s\",\n" (json_escape t.backoff));
  add (Printf.sprintf "  \"deadline_ticks\": %g,\n" t.deadline);
  add (Printf.sprintf "  \"hold_ticks\": %g,\n" t.hold);
  add (Printf.sprintf "  \"crash_prob\": %g,\n" t.crash_prob);
  add (Printf.sprintf "  \"workers\": %d,\n" t.workers);
  add (Printf.sprintf "  \"seed\": %Ld,\n" t.seed);
  add (Printf.sprintf "  \"duration_ticks\": %.3f,\n" t.duration);
  add (Printf.sprintf "  \"throughput_per_ktick\": %.6f,\n" t.throughput);
  let c = t.counts in
  add
    (Printf.sprintf
       "  \"counts\": {\"clients\": %d, \"completed\": %d, \
        \"deadline_exceeded\": %d, \"crashed_clients\": %d, \
        \"holder_crashes\": %d, \"forced_expiries\": %d, \"shed\": %d, \
        \"retries\": %d, \"rounds\": %d, \"stale_wins\": %d},\n"
       c.clients c.completed c.deadline_exceeded c.crashed_clients
       c.holder_crashes c.forced_expiries c.shed c.retries c.rounds
       c.stale_wins);
  (match t.latency with
  | None -> add "  \"latency\": null,\n"
  | Some l ->
      add
        (Printf.sprintf
           "  \"latency\": {\"mode\": \"%s\", \"n\": %d, \"mean\": %.3f, \
            \"p50\": %.3f, \"p95\": %.3f, \"p99\": %.3f, \"p999\": %.3f, \
            \"max\": %.3f},\n"
           (json_escape l.l_mode) l.l_n l.l_mean l.l_p50 l.l_p95 l.l_p99
           l.l_p999 l.l_max));
  add (Printf.sprintf "  \"livelocked\": %b,\n" t.livelocked);
  (match t.diagnosis with
  | None -> add "  \"diagnosis\": null\n"
  | Some d -> add (Printf.sprintf "  \"diagnosis\": \"%s\"\n" (json_escape d)));
  add "}\n";
  Buffer.contents b

let pp ppf t =
  let c = t.counts in
  Fmt.pf ppf
    "@[<v>service %s/%s: %d clients over %d keys (zipf %.2f, %s, backoff %s)@ \
     completed %d, deadline %d, crashed %d (holder %d), shed %d, stale %d@ \
     rounds %d, forced expiries %d, retries %d@ \
     duration %.0f ticks, throughput %.3f/ktick%a%a@]"
    t.backend t.algorithm c.clients t.keys t.zipf_s t.arrival t.backoff
    c.completed c.deadline_exceeded c.crashed_clients c.holder_crashes c.shed
    c.stale_wins c.rounds c.forced_expiries c.retries t.duration t.throughput
    (fun ppf -> function
      | None -> Fmt.pf ppf "@ latency: no completions"
      | Some l ->
          Fmt.pf ppf
            "@ latency ticks: p50 %.1f, p95 %.1f, p99 %.1f, p999 %.1f, max \
             %.1f (n=%d)"
            l.l_p50 l.l_p95 l.l_p99 l.l_p999 l.l_max l.l_n)
    t.latency
    (fun ppf -> function
      | false -> ()
      | true ->
          Fmt.pf ppf "@ LIVELOCKED: %s"
            (Option.value ~default:"(no diagnosis)" t.diagnosis))
    t.livelocked
