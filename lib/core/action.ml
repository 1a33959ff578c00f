type kind =
  | Load
  | Store
  | Rmw
  | Na_store
  | Fence

type graph_node = ..
type graph_node += No_graph_node

type t = {
  seq : int;
  tid : int;
  kind : kind;
  loc : int;
  mo : Memorder.t;
  mutable value : int;
  mutable rf : t option;
  hb_cv : Clockvec.t;
  mutable rf_cv : Clockvec.t option;
  mutable rmw_claimed : bool;
  volatile : bool;
  mutable mo_node : graph_node;
}

let is_write a =
  match a.kind with
  | Store | Rmw | Na_store -> true
  | Load | Fence -> false

let is_read a =
  match a.kind with
  | Load | Rmw -> true
  | Store | Na_store | Fence -> false

let[@inline] happens_before a b =
  a.seq <> b.seq && Clockvec.covers b.hb_cv ~tid:a.tid ~seq:a.seq
