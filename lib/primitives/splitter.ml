type outcome = L | R | S

module Make (M : Backend.Mem.S) = struct
  type t = {
    race : M.reg;  (* holds slot + 1; 0 = untouched *)
    door : M.reg;  (* 0 = open, 1 = closed *)
  }

  let create ?(name = "sp") mem =
    {
      race = M.alloc mem ~name:(name ^ ".race");
      door = M.alloc mem ~name:(name ^ ".door");
    }

  (* Moir-Anderson: write your id to [race]; if the door is already closed
     someone overlapped and got through, go L. Otherwise close the door; if
     [race] still holds your id you win (S), else someone overwrote it, go
     R. A solo caller finds the door open and its own id in [race]: S. *)
  let split t ctx =
    let me = M.self ctx + 1 in
    M.write ctx t.race me;
    if M.read ctx t.door = 1 then L
    else begin
      M.write ctx t.door 1;
      if M.read ctx t.race = me then S else R
    end
end

include Make (Backend.Sim_mem)
