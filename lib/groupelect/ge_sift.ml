let resolution = 1 lsl 20

let threshold write_prob =
  max 1 (int_of_float (write_prob *. float_of_int resolution))

module Make (M : Backend.Mem.S) = struct
  let create ?(name = "sift") mem ~write_prob =
    if not (write_prob > 0.0 && write_prob <= 1.0) then
      invalid_arg "Ge_sift.create: write_prob must be in (0, 1]";
    let r = M.alloc mem ~name:(name ^ ".r") in
    let threshold = threshold write_prob in
    let elect ctx =
      M.enter ctx "sift_round";
      let won =
        if M.flip ctx resolution < threshold then begin
          M.write ctx r 1;
          true
        end
        else M.read ctx r = 0
      in
      M.leave ctx "sift_round";
      won
    in
    { Ge.ge_name = name; elect }
end

include Make (Backend.Sim_mem)

let probability_schedule ~n =
  (* The forecast k -> 2 sqrt k + 1 has its fixed point at ~5.83 — that
     constant is the O(1) survivor count sifting converges to — so the
     recursion must stop strictly above it. *)
  let rec build acc k =
    if k <= 8.0 then List.rev acc
    else
      let p = 1.0 /. sqrt k in
      build (p :: acc) ((2.0 *. sqrt k) +. 1.0)
  in
  Array.of_list (build [] (float_of_int n))
