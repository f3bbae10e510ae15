(* Monotonic clock and the traced rep's span buffer.

   Spans are recorded by the benchmark around its own calls into the
   library's public functions; nothing inside the library is
   instrumented. The buffer is preallocated, so recording a span
   allocates nothing, and it is written out once, at the end of the
   rep, as a Perfetto trace. *)

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

(* CLOCK_MONOTONIC in nanoseconds. The clock is system-wide, so a parent
   and its child processes can compare readings. *)
let now_ns () = Int64.to_int (clock_ns ())
let now_s () = float_of_int (now_ns ()) *. 1e-9

type t = {
  t0 : int;
  names : string array;
  tids : int array;
  starts : int array;
  stops : int array;
  args : string array;
  mutable n : int;
  tracks : (int, string) Hashtbl.t;
}

let create ?(capacity = 4096) () =
  {
    t0 = now_ns ();
    names = Array.make capacity "";
    tids = Array.make capacity 0;
    starts = Array.make capacity 0;
    stops = Array.make capacity 0;
    args = Array.make capacity "";
    n = 0;
    tracks = Hashtbl.create 16;
  }

let name_track t ~tid name = Hashtbl.replace t.tracks tid name

(* [record t ~name ~tid ~start ~stop] keeps one finished span; once the
   buffer is full further spans are not kept. *)
let record t ?(args = "") ~name ~tid ~start ~stop () =
  if t.n < Array.length t.names then begin
    let i = t.n in
    t.names.(i) <- name;
    t.tids.(i) <- tid;
    t.starts.(i) <- start;
    t.stops.(i) <- stop;
    t.args.(i) <- args;
    t.n <- i + 1
  end

(* [span t ~name ~tid f] runs [f] inside a recorded span. *)
let span t ?args ~name ~tid f =
  let start = now_ns () in
  let r = f () in
  record t ?args ~name ~tid ~start ~stop:(now_ns ()) ();
  r

(* Perfetto JSON through Obs.Chrome_trace: timestamps in microseconds
   since the buffer was created, one track per [tid]. *)
let write t path =
  let tr = Obs.Chrome_trace.create () in
  Hashtbl.iter (fun tid name -> Obs.Chrome_trace.name_thread tr ~tid name) t.tracks;
  for i = 0 to t.n - 1 do
    let args = if t.args.(i) = "" then None else Some t.args.(i) in
    Obs.Chrome_trace.complete tr ~name:t.names.(i)
      ~ts:((t.starts.(i) - t.t0) / 1000)
      ~dur:((t.stops.(i) - t.starts.(i)) / 1000)
      ~tid:t.tids.(i) ?args ()
  done;
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> Obs.Chrome_trace.output tr oc)
