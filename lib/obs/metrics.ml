(* The metrics core of Probe: named integer counters grouped in a
   registry.

   Overhead discipline: a registry is plain mutable state owned by one
   domain (typically one Engine worker); bumping a counter is a field
   increment. Nothing here is thread-safe by design — cross-domain
   aggregation goes through immutable {!snapshot} values and the
   associative {!merge}, exactly like the engine's per-worker GC
   deltas. *)

type counter = { mutable c_value : int }
type t = (string, counter) Hashtbl.t

let create () : t = Hashtbl.create 16

let counter t name =
  match Hashtbl.find_opt t name with
  | Some c -> c
  | None ->
      let c = { c_value = 0 } in
      Hashtbl.add t name c;
      c

let incr c = c.c_value <- c.c_value + 1
let add c v = c.c_value <- c.c_value + v
let value c = c.c_value

(* {1 Snapshots} *)

type snapshot = { counters : (string * int) list (* sorted by name *) }

let empty_snapshot = { counters = [] }

let snapshot t =
  {
    counters =
      List.sort
        (fun (a, _) (b, _) -> String.compare a b)
        (Hashtbl.fold (fun name c acc -> (name, c.c_value) :: acc) t []);
  }

(* Merge two sorted assoc lists, summing values under equal keys. *)
let rec merge_sum a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ta, (kb, vb) :: tb ->
      let c = String.compare ka kb in
      if c < 0 then (ka, va) :: merge_sum ta b
      else if c > 0 then (kb, vb) :: merge_sum a tb
      else (ka, va + vb) :: merge_sum ta tb

let merge a b = { counters = merge_sum a.counters b.counters }

let pp_snapshot ppf s =
  List.iter (fun (name, v) -> Fmt.pf ppf "%s = %d@." name v) s.counters
