(* A certification sink that records every action and sync edge an
   execution feeds its sinks, oldest first.  The post-hoc references the
   streaming consumers are tested against — [Check.certify] and
   [Cov.shape_of_execution] — read these recordings, so one run gives
   both the engine's verdict or shape and the reference's, on the same
   execution. *)

type t = {
  mutable exec : Execution.t option;
  mutable actions_rev : Action.t list;
  mutable edges_rev : Execution.sync_edge list;
}

let create () = { exec = None; actions_rev = []; edges_rev = [] }

let sink r =
  {
    Execution.cs_action = (fun a -> r.actions_rev <- a :: r.actions_rev);
    cs_edge = (fun e -> r.edges_rev <- e :: r.edges_rev);
    cs_release = (fun ~tid:_ ~seq:_ -> ());
    cs_release_drop = (fun ~seq:_ -> ());
  }

(* Install the recorder on a new execution, before its first thread;
   like any sink it turns the execution's certification events on.
   [attach r] is what [Engine.run ~inspect] takes.  [wrap] sees the
   recorder's sink first, so a test can tamper with the events it
   receives. *)
let attach ?(wrap = Fun.id) r exec =
  r.exec <- Some exec;
  Execution.add_cert_sink exec (wrap (sink r))

let exec r = Option.get r.exec
let actions r = List.rev r.actions_rev
let sync_edges r = List.rev r.edges_rev

let certify r =
  Check.certify (exec r) ~actions:(actions r) ~sync_edges:(sync_edges r)

let shape r =
  Cov.shape_of_execution ~actions:(actions r) ~sync_edges:(sync_edges r)

(* One engine run with a recorder attached. *)
let run config body =
  let r = create () in
  let o = Engine.run ~inspect:(attach r) config body in
  (o, r)
