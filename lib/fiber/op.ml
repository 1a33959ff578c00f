type t =
  | Load of { loc : int; mo : Memorder.t; volatile : bool }
  | Store of { loc : int; mo : Memorder.t; value : int; volatile : bool }
  | Rmw of {
      loc : int;
      mo : Memorder.t;
      f : int -> Execution.rmw_decision;
      volatile : bool;
    }
  | Fence of Memorder.t
  | Na_read of { loc : int }
  | Na_write of { loc : int; value : int }
  | Alloc of { atomic : bool; name : string option; init : int }
  | Spawn of (unit -> unit)
  | Join of int
  | Mutex_create
  | Mutex_lock of int
  | Mutex_trylock of int
  | Mutex_unlock of int
  | Cond_create
  | Cond_wait of { cond : int; mutex : int }
  | Cond_signal of int
  | Cond_broadcast of int
  | Yield

let[@inline] is_inline = function
  | Na_read _ | Na_write _ | Alloc _ | Mutex_create | Cond_create -> true
  | Load _ | Store _ | Rmw _ | Fence _ | Spawn _ | Join _ | Mutex_lock _
  | Mutex_trylock _ | Mutex_unlock _ | Cond_wait _ | Cond_signal _
  | Cond_broadcast _ | Yield ->
    false

let[@inline] is_rlx_or_rel_store = function
  | Store { mo; _ } ->
    (* anything below seq_cst on the store side: no acquire half, not sc *)
    not (Memorder.is_acquire mo || Memorder.is_seq_cst mo)
  | _ -> false

let pp fmt = function
  | Load { loc; mo; volatile } ->
    Format.fprintf fmt "load%s(%d,%a)" (if volatile then "v" else "") loc
      Memorder.pp mo
  | Store { loc; mo; value; volatile } ->
    Format.fprintf fmt "store%s(%d,%a,%d)"
      (if volatile then "v" else "")
      loc Memorder.pp mo value
  | Rmw { loc; mo; _ } -> Format.fprintf fmt "rmw(%d,%a)" loc Memorder.pp mo
  | Fence mo -> Format.fprintf fmt "fence(%a)" Memorder.pp mo
  | Na_read { loc } -> Format.fprintf fmt "na-read(%d)" loc
  | Na_write { loc; value } -> Format.fprintf fmt "na-write(%d,%d)" loc value
  | Alloc { atomic; _ } ->
    Format.fprintf fmt "alloc(%s)" (if atomic then "atomic" else "na")
  | Spawn _ -> Format.pp_print_string fmt "spawn"
  | Join tid -> Format.fprintf fmt "join(%d)" tid
  | Mutex_create -> Format.pp_print_string fmt "mutex-create"
  | Mutex_lock m -> Format.fprintf fmt "lock(%d)" m
  | Mutex_trylock m -> Format.fprintf fmt "trylock(%d)" m
  | Mutex_unlock m -> Format.fprintf fmt "unlock(%d)" m
  | Cond_create -> Format.pp_print_string fmt "cond-create"
  | Cond_wait { cond; mutex } -> Format.fprintf fmt "wait(%d,%d)" cond mutex
  | Cond_signal c -> Format.fprintf fmt "signal(%d)" c
  | Cond_broadcast c -> Format.fprintf fmt "broadcast(%d)" c
  | Yield -> Format.pp_print_string fmt "yield"
