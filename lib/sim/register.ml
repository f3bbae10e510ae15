type t = Memory.reg = private {
  id : int;
  name : string;
  mutable value : int;
  mutable last_writer : int;
  arena : Memory.t;
}

let create = Memory.register
let read t = t.value
let write = Memory.write
let pp ppf t = Fmt.pf ppf "%s#%d=%d" t.name t.id t.value
