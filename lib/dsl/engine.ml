type volatile_mode =
  | Volatile_atomic of Memorder.t
  | Volatile_nonatomic

type config = {
  mode : Execution.mode;
  sched : Schedule.t;
  volatile_mode : volatile_mode;
  prune : Pruner.policy;
  max_steps : int;
  seed : int64;
  certify : bool;
  mutation : Execution.mutation option;
  coverage : bool;
}

let default_config =
  {
    mode = Execution.Full_c11;
    sched = Schedule.Controlled_random { batch_stores = true };
    volatile_mode = Volatile_atomic Memorder.Relaxed;
    prune = Pruner.No_prune;
    max_steps = 2_000_000;
    seed = 1L;
    certify = false;
    mutation = None;
    coverage = false;
  }

type outcome = {
  races : Race.report list;
  assertion_failures : string list;
  uncaught_exceptions : string list;
  deadlock : bool;
  step_limit_hit : bool;
  steps : int;
  atomic_ops : int;
  na_ops : int;
  threads_created : int;
  max_graph_size : int;
  final_footprint : int;
  pruned_stores : int;
  certificate : Check.verdict option;
      (** [Some _] iff the execution ran with [config.certify] *)
  certified_ops : int;
      (** actions consumed by the streaming certifier (0 when off) *)
  retired_prefix_ops : int;
      (** actions whose certification window storage was retired *)
  shape : Cov.shape option;
      (** [Some _] iff the execution ran with [config.coverage] *)
}

let buggy o =
  o.races <> [] || o.assertion_failures <> []
  || match o.certificate with Some (Check.Rejected _) -> true | _ -> false

exception Assertion_violation of string

let assert_that cond msg = if not cond then raise (Assertion_violation msg)

(* ------------------------------------------------------------------ *)

type thread_status =
  | Not_started of (unit -> unit)
  | Pending of Op.t * Fiber.cont
      (** parked at a visible operation requested by the program *)
  | Relock of int * Fiber.cont
      (** woken from a condvar; must re-acquire the mutex *)
  | Sleeping of { cond : int; mutex : int; k : Fiber.cont }
      (** waiting on a condvar *)
  | Finished

type mutex = {
  mutable locked_by : int option;
  mutable m_release_cv : Clockvec.t;
  mutable m_unlockers : (int * int) list;
      (** certification only: tid -> latest unlock seq.  [m_release_cv]
          accumulates every unlocker's snapshot, so a lock hand-off is one
          sync edge per unlocking thread (per-thread snapshots are
          monotone — the latest covers the rest). *)
}

type condvar = { mutable waiters : int list }

type thread = {
  tid : int;
  mutable status : thread_status;
  mutable final_cv : Clockvec.t option;
}

type state = {
  config : config;
  exec : Execution.t;
  rng : Rng.t;
  race : Race.t;
  mutable threads : thread array;
  mutable nthreads : int;
  mutable live : int array;
      (* the unfinished tids, ascending, in [live.(0 .. nlive-1)]: the
         scheduler scans these, not every thread ever created *)
  mutable nlive : int;
  mutable running : int;
      (* the tid whose fiber is executing, -1 between fiber steps (see the
         inline fast path below) *)
  mutable mutexes : mutex array;
  mutable nmutexes : int;
  mutable condvars : condvar array;
  mutable ncondvars : int;
  sched_state : Schedule.state;
  mutable enabled_buf : int array;
      (* reusable per-step buffer of enabled tids, ascending *)
  mutable steps : int;
  mutable assertion_failures : string list;
  mutable uncaught : string list;
  mutable deadlock : bool;
  mutable step_limit_hit : bool;
}

let grow_push arr n v =
  let len = Array.length arr in
  if n < len then begin
    arr.(n) <- v;
    arr
  end
  else begin
    let arr' = Array.make (max 4 (2 * len)) v in
    Array.blit arr 0 arr' 0 len;
    arr'
  end

let add_thread st body ~parent =
  let tid = Execution.new_thread st.exec ~parent in
  let th = { tid; status = Not_started body; final_cv = None } in
  (* the newest tid is the largest, so appending keeps [live] ascending.
     The first thread gives both tables their first capacity as literals
     here, where the element types are known: in the polymorphic
     [grow_push] a literal would be a [caml_make_array] call. *)
  if st.nthreads = 0 then begin
    st.threads <- [| th; th; th; th |];
    st.live <- [| tid; tid; tid; tid |]
  end
  else begin
    st.threads <- grow_push st.threads st.nthreads th;
    st.live <- grow_push st.live st.nlive tid
  end;
  st.nthreads <- st.nthreads + 1;
  assert (tid = st.nthreads - 1);
  st.nlive <- st.nlive + 1;
  tid

(* Take a finished thread out of [live], keeping the rest in order. *)
let retire_live st tid =
  let live = st.live in
  let i = ref 0 in
  while live.(!i) <> tid do
    incr i
  done;
  for j = !i to st.nlive - 2 do
    Array.unsafe_set live j (Array.unsafe_get live (j + 1))
  done;
  st.nlive <- st.nlive - 1

let add_mutex st =
  let m =
    { locked_by = None; m_release_cv = Clockvec.bottom (); m_unlockers = [] }
  in
  st.mutexes <- grow_push st.mutexes st.nmutexes m;
  st.nmutexes <- st.nmutexes + 1;
  st.nmutexes - 1

let add_condvar st =
  let c = { waiters = [] } in
  st.condvars <- grow_push st.condvars st.ncondvars c;
  st.ncondvars <- st.ncondvars + 1;
  st.ncondvars - 1

let[@inline never] unknown name =
  raise (Execution.Model_error ("unknown " ^ name))

(* [mutexes] and [condvars] hold at least [nmutexes]/[ncondvars] slots,
   so the checked index is in bounds. *)
let[@inline] mutex st m =
  if m < 0 || m >= st.nmutexes then unknown "mutex";
  Array.unsafe_get st.mutexes m

let[@inline] condvar st c =
  if c < 0 || c >= st.ncondvars then unknown "condition variable";
  Array.unsafe_get st.condvars c

(* ------------------------------------------------------------------ *)
(* Enabledness: a thread is disabled while it waits on a held mutex, an
   unfinished thread or a condition variable (Section 3). *)

let[@inline] thread_enabled st th =
  match th.status with
  | Not_started _ -> true
  | Pending (Op.Mutex_lock m, _) | Relock (m, _) ->
    (mutex st m).locked_by = None
  | Pending (Op.Join tid, _) -> (
    match st.threads.(tid).status with Finished -> true | _ -> false)
  | Pending _ -> true
  | Sleeping _ | Finished -> false

(* Fill [st.enabled_buf] with the enabled tids in ascending order and
   return how many there are — ran on every scheduling decision, so no
   per-step list, and over the unfinished threads only: a finished
   thread is never enabled, so skipping it leaves the buffer unchanged. *)
let[@inline never] grow_enabled st =
  st.enabled_buf <- Array.make (2 * st.nlive) 0

let[@inline] collect_enabled st =
  if Array.length st.enabled_buf < st.nlive then grow_enabled st;
  let buf = st.enabled_buf in
  let live = st.live in
  let n = ref 0 in
  for i = 0 to st.nlive - 1 do
    let tid = Array.unsafe_get live i in
    if thread_enabled st st.threads.(tid) then begin
      buf.(!n) <- tid;
      incr n
    end
  done;
  !n

let pending_is_rlx_store st tid =
  match st.threads.(tid).status with
  | Pending (op, _) -> Op.is_rlx_or_rel_store op
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Volatile access rewriting (Section 7.2): C11Tester promotes volatiles to
   atomics with a configurable order; the baseline tools leave them as
   plain racy accesses. *)

let volatile_load_mo st =
  match st.config.volatile_mode with
  | Volatile_atomic Memorder.Acq_rel -> Some Memorder.Acquire
  | Volatile_atomic mo -> Some mo
  | Volatile_nonatomic -> None

let volatile_store_mo st =
  match st.config.volatile_mode with
  | Volatile_atomic Memorder.Acq_rel -> Some Memorder.Release
  | Volatile_atomic mo -> Some mo
  | Volatile_nonatomic -> None

let wake st tid =
  let th = st.threads.(tid) in
  match th.status with
  | Sleeping { mutex = m; k; _ } -> th.status <- Relock (m, k)
  | Not_started _ | Pending _ | Relock _ | Finished -> ()

(* ------------------------------------------------------------------ *)
(* Interpreting one visible operation. *)

type op_result =
  | Value of int  (** resume the fiber with this result *)
  | Sleep of { cond : int; mutex : int }  (** park the fiber on a condvar *)

(* Certification: the acquire half of a lock corresponds to one sync edge
   from every thread whose unlock snapshot is folded into [m_release_cv]. *)
let cert_lock_edges st tid mu =
  if st.exec.Execution.cert_on then begin
    let to_seq = Execution.thread_now st.exec ~tid in
    List.iter
      (fun (utid, useq) ->
        Execution.cert_sync_edge st.exec ~from_tid:utid ~from_seq:useq
          ~to_tid:tid ~to_seq)
      mu.m_unlockers
  end

let lock_mutex st tid mu =
  assert (mu.locked_by = None);
  Execution.tick_sync st.exec ~tid;
  Execution.acquire_cv st.exec ~tid mu.m_release_cv;
  cert_lock_edges st tid mu;
  mu.locked_by <- Some tid

(* Is [tid] the holder of [mu]?  A pattern match: the polymorphic
   [mu.locked_by <> Some tid] is a [caml_notequal] call. *)
let holds mu tid = match mu.locked_by with Some t -> t = tid | None -> false

(* Retire [tid]'s superseded unlock snapshot, if any ([List.assoc_opt]
   would compare the keys through [caml_compare]). *)
let rec drop_old_unlock st (tid : int) = function
  | [] -> ()
  | (t, old_seq) :: rest ->
    if t = tid then Execution.cert_release_drop st.exec ~seq:old_seq
    else drop_old_unlock st tid rest

let unlock_mutex st tid mu =
  Execution.tick_sync st.exec ~tid;
  ignore
    (Clockvec.merge mu.m_release_cv (Execution.release_snapshot st.exec ~tid));
  if st.exec.Execution.cert_on then begin
    (* a newer unlock by the same thread supersedes the old snapshot: no
       future lock edge can reference it (streaming frees it eagerly) *)
    drop_old_unlock st tid mu.m_unlockers;
    Execution.cert_release st.exec ~tid;
    mu.m_unlockers <-
      (tid, Execution.thread_now st.exec ~tid)
      :: List.filter (fun (t, _) -> t <> tid) mu.m_unlockers
  end;
  mu.locked_by <- None

let exec_op st th (op : Op.t) : op_result =
  let tid = th.tid in
  let exec = st.exec in
  match op with
  | Op.Load { loc; mo; volatile } -> (
    match (volatile, volatile_load_mo st) with
    | true, None -> Value (Execution.na_read exec ~tid ~loc)
    | true, Some mo ->
      Value (Execution.atomic_load exec ~tid ~loc ~mo ~volatile:true)
    | false, _ -> Value (Execution.atomic_load exec ~tid ~loc ~mo ~volatile))
  | Op.Store { loc; mo; value; volatile } ->
    (match (volatile, volatile_store_mo st) with
    | true, None -> Execution.na_write exec ~tid ~loc value
    | true, Some mo ->
      Execution.atomic_store exec ~tid ~loc ~mo ~volatile:true value
    | false, _ -> Execution.atomic_store exec ~tid ~loc ~mo ~volatile value);
    Value 0
  | Op.Rmw { loc; mo; f; volatile } ->
    let mo =
      if volatile then
        match st.config.volatile_mode with
        | Volatile_atomic Memorder.Acq_rel -> Memorder.Acq_rel
        | Volatile_atomic m -> m
        | Volatile_nonatomic -> mo
      else mo
    in
    Value (Execution.atomic_rmw exec ~tid ~loc ~mo ~volatile ~f)
  | Op.Fence mo ->
    Execution.fence exec ~tid ~mo;
    Value 0
  | Op.Na_read { loc } -> Value (Execution.na_read exec ~tid ~loc)
  | Op.Na_write { loc; value } ->
    Execution.na_write exec ~tid ~loc value;
    Value 0
  | Op.Alloc { atomic; name; init } ->
    let loc = Execution.fresh_loc exec ~atomic ~name in
    Execution.na_write exec ~tid ~loc init;
    Value loc
  | Op.Spawn body ->
    Execution.tick_sync exec ~tid;
    Value (add_thread st body ~parent:(Some tid))
  | Op.Join child ->
    Execution.tick_sync exec ~tid;
    (match st.threads.(child).final_cv with
    | Some cv ->
      Execution.acquire_cv exec ~tid cv;
      if exec.Execution.cert_on then
        Execution.cert_sync_edge exec ~from_tid:child
          ~from_seq:(Clockvec.get cv child) ~to_tid:tid
          ~to_seq:(Execution.thread_now exec ~tid)
    | None -> raise (Execution.Model_error "join on unfinished thread"));
    Value 0
  | Op.Mutex_create -> Value (add_mutex st)
  | Op.Cond_create -> Value (add_condvar st)
  | Op.Mutex_lock m ->
    lock_mutex st tid (mutex st m);
    Value 0
  | Op.Mutex_trylock m ->
    let mu = mutex st m in
    Execution.tick_sync exec ~tid;
    if mu.locked_by = None then begin
      Execution.acquire_cv exec ~tid mu.m_release_cv;
      cert_lock_edges st tid mu;
      mu.locked_by <- Some tid;
      Value 1
    end
    else Value 0
  | Op.Mutex_unlock m ->
    let mu = mutex st m in
    if not (holds mu tid) then
      raise (Assertion_violation "unlock of mutex not held by this thread");
    unlock_mutex st tid mu;
    Value 0
  | Op.Cond_wait { cond; mutex = m } ->
    let mu = mutex st m in
    if not (holds mu tid) then
      raise (Assertion_violation "cond_wait without holding the mutex");
    unlock_mutex st tid mu;
    (condvar st cond).waiters <- tid :: (condvar st cond).waiters;
    Sleep { cond; mutex = m }
  | Op.Cond_signal c ->
    let cv = condvar st c in
    Execution.tick_sync exec ~tid;
    (match cv.waiters with
    | [] -> ()
    | waiters ->
      let arr = Array.of_list waiters in
      let idx = Rng.int st.rng (Array.length arr) in
      let woken = arr.(idx) in
      cv.waiters <- List.filter (fun t -> t <> woken) waiters;
      wake st woken);
    Value 0
  | Op.Cond_broadcast c ->
    let cv = condvar st c in
    Execution.tick_sync exec ~tid;
    List.iter (wake st) cv.waiters;
    cv.waiters <- [];
    Value 0
  | Op.Yield -> Value 0

(* ------------------------------------------------------------------ *)
(* Driving fibers *)

exception Abort_execution

let finish_thread st th =
  Execution.tick_sync st.exec ~tid:th.tid;
  th.final_cv <- Some (Execution.release_snapshot st.exec ~tid:th.tid);
  if st.exec.Execution.cert_on then Execution.cert_release st.exec ~tid:th.tid;
  (Execution.thread st.exec th.tid).Execution.live <- false;
  th.status <- Finished;
  retire_live st th.tid

let record_crash st = function
  | Assertion_violation msg ->
    st.assertion_failures <- msg :: st.assertion_failures;
    raise Abort_execution
  | Fiber.Cancelled -> raise Abort_execution
  | Abort_execution ->
    (* the step limit can now trip inside the fiber (an inline fast-path
       access, see [inline_ctx]); it is an abort, not a program crash *)
    raise Abort_execution
  | e ->
    st.uncaught <- Printexc.to_string e :: st.uncaught;
    raise Abort_execution

let[@inline never] step_limit st =
  st.step_limit_hit <- true;
  raise Abort_execution

let[@inline] bump_steps st =
  st.steps <- st.steps + 1;
  if st.steps > st.config.max_steps then step_limit st

(* ------------------------------------------------------------------ *)
(* Inline fast path.  Non-atomic reads and writes never schedule: the
   settle loop below would absorb them without consulting the scheduler
   or the RNG.  Suspending the fiber just to bounce straight back is the
   dominant cost of a plain access, so while a fiber is running, the
   inline context names the engine state, whose [running] field names the
   acting thread, and the DSL interprets those operations as direct
   calls — same step accounting, same model calls, no effect round-trip.
   Outside fiber execution (in particular during [Fiber.cancel] unwinds)
   [running] is -1, the context reads as [None], and the DSL falls back to
   performing the effect.

   The context lives in domain-local storage, not a module-level ref:
   parallel campaigns (Tester.run_*_parallel) run one engine per domain,
   and a shared ref would let one domain's fiber read another domain's
   engine state.  It is installed once per [run] (and the previous one
   restored after), so starting or resuming a fiber only writes
   [running]. *)

type inline_ctx = state

let inline_ctx_key : state option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let[@inline] current_inline_ctx () =
  match Domain.DLS.get inline_ctx_key with
  | Some st as c when st.running >= 0 -> c
  | Some _ | None -> None

let[@inline] inline_na_read st ~loc =
  bump_steps st;
  Execution.na_read st.exec ~tid:st.running ~loc

let[@inline] inline_na_write st ~loc v =
  bump_steps st;
  Execution.na_write st.exec ~tid:st.running ~loc v

let[@inline] fiber_start st th body =
  st.running <- th.tid;
  let r = Fiber.start body in
  st.running <- -1;
  r

let[@inline] fiber_resume st th k v =
  st.running <- th.tid;
  let r = Fiber.resume k v in
  st.running <- -1;
  r

(* Run one fiber step and keep absorbing inline (non-scheduling)
   operations; park the fiber at its next scheduling point. *)
let rec settle st th (step : Fiber.step) =
  match step with
  | Fiber.Done -> finish_thread st th
  | Fiber.Raised e -> record_crash st e
  | Fiber.Paused (op, k) ->
    if Op.is_inline op then begin
      bump_steps st;
      match exec_op st th op with
      | Value v -> settle st th (fiber_resume st th k v)
      | Sleep _ -> assert false
    end
    else th.status <- Pending (op, k)

(* C11obs: synchronisation operations (thread and lock traffic) trace as
   Sync events; memory accesses are emitted by {!Execution} itself. *)
let[@inline never] emit_sync_event st ~tid detail =
  Obs.emit st.exec.Execution.obs
    {
      Obs.step = st.exec.Execution.seq;
      tid;
      kind = Obs.Sync;
      loc = -1;
      mo = "";
      value = 0;
      detail;
    }

let[@inline] emit_sync st ~tid detail =
  if st.exec.Execution.obs_on then emit_sync_event st ~tid detail

let[@inline] sync_detail = function
  | Op.Spawn _ -> Some "spawn"
  | Op.Join _ -> Some "join"
  | Op.Mutex_lock _ -> Some "mutex_lock"
  | Op.Mutex_trylock _ -> Some "mutex_trylock"
  | Op.Mutex_unlock _ -> Some "mutex_unlock"
  | Op.Cond_wait _ -> Some "cond_wait"
  | Op.Cond_signal _ -> Some "cond_signal"
  | Op.Cond_broadcast _ -> Some "cond_broadcast"
  | Op.Mutex_create | Op.Cond_create | Op.Load _ | Op.Store _ | Op.Rmw _
  | Op.Fence _ | Op.Na_read _ | Op.Na_write _ | Op.Alloc _ | Op.Yield ->
    None

(* Execute the chosen thread's pending scheduling-point operation. *)
let[@inline] run_thread st tid =
  let th = st.threads.(tid) in
  bump_steps st;
  match th.status with
  | Not_started body ->
    Schedule.note_executed st.sched_state ~tid ~was_rlx_or_rel_store:false;
    settle st th (fiber_start st th body)
  | Pending (op, k) ->
    Schedule.note_executed st.sched_state ~tid
      ~was_rlx_or_rel_store:(Op.is_rlx_or_rel_store op);
    (match exec_op st th op with
    | Value v ->
      (match sync_detail op with
      | Some d -> emit_sync st ~tid d
      | None -> ());
      settle st th (fiber_resume st th k v)
    | Sleep { cond; mutex = m } ->
      emit_sync st ~tid "cond_wait";
      th.status <- Sleeping { cond; mutex = m; k })
  | Relock (m, k) ->
    Schedule.note_executed st.sched_state ~tid ~was_rlx_or_rel_store:false;
    lock_mutex st tid (mutex st m);
    emit_sync st ~tid "relock";
    settle st th (fiber_resume st th k 0)
  | Sleeping _ | Finished ->
    raise (Execution.Model_error "scheduled a disabled thread")

let cancel_all st =
  for i = 0 to st.nthreads - 1 do
    match st.threads.(i).status with
    | Pending (_, k) | Relock (_, k) | Sleeping { k; _ } ->
      st.threads.(i).status <- Finished;
      Fiber.cancel k
    | Not_started _ -> st.threads.(i).status <- Finished
    | Finished -> ()
  done

let run ?(obs = Obs.null) ?(profile = Profile.null) ?(metrics = Metrics.null)
    ?inspect config f =
  (* cached guards for the per-step sites in the scheduling loop (see the
     matching note in Execution.t) *)
  let obs_on = Obs.enabled obs and metrics_on = Metrics.enabled metrics in
  let p_run = Profile.start profile in
  let rng = Rng.create config.seed in
  let race = Race.create ~obs ~metrics () in
  let exec =
    Execution.create ~obs ~prof:profile ~metrics ?mutation:config.mutation
      ~mode:config.mode ~rng ~race ()
  in
  let st =
    {
      config;
      exec;
      rng;
      race;
      threads = [||];
      nthreads = 0;
      live = [||];
      nlive = 0;
      running = -1;
      mutexes = [||];
      nmutexes = 0;
      condvars = [||];
      ncondvars = 0;
      sched_state = Schedule.make_state ();
      (* its first capacity: every run collects the enabled threads *)
      enabled_buf =
        (let z = Sys.opaque_identity 0 in
         [| z; z; z; z; z; z; z; z |]);
      steps = 0;
      assertion_failures = [];
      uncaught = [];
      deadlock = false;
      step_limit_hit = false;
    }
  in
  (* the streaming certifier and the coverage fingerprint consume events
     as they happen; installing either turns the events on, and nothing
     is retained for them *)
  let stream =
    if config.certify then begin
      (* a thread's engine clock bounds what it can still read only while
         it may run: finished threads are out, and a thread parked on an
         unconditional acquire (join, lock of a held mutex) will merge the
         releaser's snapshot before its next read, so its stale clock need
         not hold the retirement frontier back *)
      let counted tid =
        tid < st.nthreads
        &&
        let th = st.threads.(tid) in
        match th.status with
        | Finished -> false
        | Not_started _ -> true
        | Pending ((Op.Mutex_lock _ | Op.Join _), _) | Relock _ ->
          thread_enabled st th
        | Pending _ | Sleeping _ -> true
      in
      let s = Check.Stream.create ~exec ~counted in
      Execution.add_cert_sink exec (Check.Stream.sink s);
      Some s
    end
    else None
  in
  let cov =
    if config.coverage then begin
      let c = Cov.Stream.create () in
      Execution.add_cert_sink exec (Cov.Stream.sink c);
      Some c
    end
    else None
  in
  Option.iter (fun f -> f exec) inspect;
  ignore (add_thread st f ~parent:None);
  let is_rlx_store = pending_is_rlx_store st in
  let outer_ctx = Domain.DLS.get inline_ctx_key in
  Domain.DLS.set inline_ctx_key (Some st);
  (try
     let continue_ = ref true in
     while !continue_ do
       let n = collect_enabled st in
       if n = 0 then begin
         if st.nlive > 0 then st.deadlock <- true;
         continue_ := false
       end
       else begin
         let tid =
           Schedule.pick_n config.sched st.sched_state rng
             ~enabled:st.enabled_buf ~n ~pending_is_rlx_store:is_rlx_store
         in
         if obs_on then
           Obs.emit obs
             {
               Obs.step = exec.Execution.seq;
               tid;
               kind = Obs.Sched_pick;
               loc = -1;
               mo = "";
               value = n;
               detail = "";
             };
         if metrics_on then Metrics.incr metrics "sched.picks";
         (* assertion violations can surface while interpreting an
            operation (e.g. unlocking a mutex the thread does not hold),
            outside any fiber *)
         (try run_thread st tid
          with Assertion_violation msg ->
            st.assertion_failures <- msg :: st.assertion_failures;
            raise Abort_execution);
         ignore
           (Pruner.maybe_prune config.prune exec ~ops:exec.Execution.atomic_ops)
       end
     done
   with
  | Abort_execution -> cancel_all st
  | Execution.Model_error _ as e ->
    cancel_all st;
    Domain.DLS.set inline_ctx_key outer_ctx;
    raise e
  | e ->
    Domain.DLS.set inline_ctx_key outer_ctx;
    raise e);
  Domain.DLS.set inline_ctx_key outer_ctx;
  Profile.stop profile "execution" p_run;
  let certificate =
    match stream with
    | Some s ->
      let p_cert = Profile.start profile in
      let v = Check.Stream.finalize s in
      Profile.stop profile "certify" p_cert;
      if metrics_on then begin
        Metrics.incr metrics "certify.executions";
        Metrics.incr metrics
          ~by:(Check.Stream.checked_locations s)
          "certify.locations";
        Metrics.incr metrics
          ~by:(Check.Stream.explained_locations s)
          "certify.locations_explained";
        match v with
        | Check.Rejected vs ->
          Metrics.incr metrics ~by:(List.length vs) "certify.violations"
        | Check.Certified _ | Check.Not_applicable _ -> ()
      end;
      Some v
    | None -> None
  in
  let shape =
    match cov with
    | Some c ->
      let p_cov = Profile.start profile in
      let sg = Cov.Stream.shape c in
      Profile.stop profile "coverage" p_cov;
      Some sg
    | None -> None
  in
  if metrics_on then begin
    Metrics.incr metrics "engine.executions";
    Metrics.incr metrics ~by:st.steps "engine.steps";
    Metrics.incr metrics ~by:st.nthreads "engine.threads";
    Metrics.observe metrics "exec.steps" (float_of_int st.steps);
    Metrics.observe metrics "exec.graph_peak"
      (float_of_int exec.Execution.max_graph_size);
    if Race.races race <> [] || st.assertion_failures <> [] then
      Metrics.incr metrics "engine.buggy_executions"
  end;
  {
    races = Race.races race;
    assertion_failures = List.rev st.assertion_failures;
    uncaught_exceptions = List.rev st.uncaught;
    deadlock = st.deadlock;
    step_limit_hit = st.step_limit_hit;
    steps = st.steps;
    atomic_ops = exec.Execution.atomic_ops;
    na_ops = exec.Execution.na_ops;
    threads_created = st.nthreads;
    max_graph_size = exec.Execution.max_graph_size;
    final_footprint = Execution.graph_footprint exec;
    pruned_stores = exec.Execution.pruned_count;
    certificate;
    certified_ops =
      (match stream with Some s -> Check.Stream.certified_ops s | None -> 0);
    retired_prefix_ops =
      (match stream with Some s -> Check.Stream.retired_ops s | None -> 0);
    shape;
  }

let pp_outcome fmt o =
  Format.fprintf fmt
    "@[<v>races: %d@ assertion failures: %d@ exceptions: %d@ deadlock: %b@ \
     steps: %d (atomic %d, na %d)@ threads: %d@ graph: peak %d, final %d, \
     pruned %d@]"
    (List.length o.races)
    (List.length o.assertion_failures)
    (List.length o.uncaught_exceptions)
    o.deadlock o.steps o.atomic_ops o.na_ops o.threads_created
    o.max_graph_size o.final_footprint o.pruned_stores
