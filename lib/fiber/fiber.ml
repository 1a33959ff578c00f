type step =
  | Done
  | Raised of exn
  | Paused of Op.t * cont

and cont = (int, step) Effect.Deep.continuation

exception Cancelled

type _ Effect.t += Visible : Op.t -> int Effect.t

let[@inline] perform op = Effect.perform (Visible op)

let handler : (unit, step) Effect.Deep.handler =
  {
    retc = (fun () -> Done);
    exnc = (fun e -> Raised e);
    effc =
      (fun (type a) (eff : a Effect.t) ->
        match eff with
        | Visible op ->
          Some
            (fun (k : (a, step) Effect.Deep.continuation) -> Paused (op, k))
        | _ -> None);
  }

let start f = Effect.Deep.match_with f () handler

let[@inline] resume k v = Effect.Deep.continue k v

let cancel k =
  match Effect.Deep.discontinue k Cancelled with
  | Done | Raised _ | Paused _ -> ()
  | exception _ -> ()
