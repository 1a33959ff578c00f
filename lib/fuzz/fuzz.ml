(* C11fuzz — see fuzz.mli for the overall contract.

   Everything here is deterministic: no wall clock, no global RNG, no
   shared mutable state between shards.  A program is a pure function of
   (gen_cfg, seed); an execution of (program, exec seed); a campaign's
   observables of (campaign_cfg) alone. *)

(* ------------------------------------------------------------------ *)
(* Programs

   The IR itself lives in lib/lint/progir.ml so the static analyzer can
   reason about programs without depending on the engine; the type
   equations below make Fuzz.Load and Progir.Load the same constructor,
   so every existing pattern-match keeps compiling. *)

type profile = Progir.profile = Mixed | Sc_heavy | Rmw_chain | Mixed_atomicity

let profile_name = Progir.profile_name
let profile_of_string = Progir.profile_of_string
let all_profiles = Progir.all_profiles

type gen_cfg = {
  g_threads : int;
  g_ops : int;
  g_atomic_locs : int;
  g_na_locs : int;
  g_mutexes : int;
  g_profile : profile;
}

let default_gen_cfg =
  {
    g_threads = 3;
    g_ops = 8;
    g_atomic_locs = 3;
    g_na_locs = 2;
    g_mutexes = 2;
    g_profile = Mixed;
  }

(* main runs one body more than [g_threads], and a body unlocks each
   mutex it still holds after its [g_ops] draws *)
let max_gen_threads = Progir.max_threads - 1
let max_gen_ops = Progir.max_ops - default_gen_cfg.g_mutexes

type op = Progir.op =
  | Load of { loc : int; mo : Memorder.t }
  | Store of { loc : int; mo : Memorder.t; value : int }
  | Add of { loc : int; mo : Memorder.t; delta : int }
  | Cas of { loc : int; mo : Memorder.t; expected : int; desired : int }
  | Xchg of { loc : int; mo : Memorder.t; value : int }
  | Fence of Memorder.t
  | Na_read of { na : int }
  | Na_write of { na : int; value : int }
  | Reuse_load of { loc : int }
  | Reuse_store of { loc : int; value : int }
  | Lock of { m : int }
  | Unlock of { m : int }
  | Yield

type program = Progir.program = {
  p_seed : int64;
  p_profile : profile;
  p_atomic_locs : int;
  p_na_locs : int;
  p_mutexes : int;
  p_threads : op array array;
}

let op_count = Progir.op_count

(* ------------------------------------------------------------------ *)
(* Generation *)

(* Weighted draw; weights of 0 drop an alternative entirely, so kind
   tables can gate alternatives on availability (no mutex to unlock, no
   plain locations configured, ...). *)
let pick rng choices =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 choices in
  if total <= 0 then invalid_arg "Fuzz.pick: no choice has positive weight";
  let r = Rng.int rng total in
  let rec walk acc = function
    | [] -> assert false
    | (w, x) :: rest -> if r < acc + w then x else walk (acc + w) rest
  in
  walk 0 choices

(* Memory orders by access category.  The Sc_heavy profile adds weight to
   seq_cst without removing any alternative, so every order stays
   reachable under every profile. *)
let sc_weight cfg = if cfg.g_profile = Sc_heavy then 60 else 0

let load_mo cfg rng =
  pick rng
    [
      (15 + sc_weight cfg, Memorder.Seq_cst);
      (30, Memorder.Acquire);
      (10, Memorder.Consume);
      (45, Memorder.Relaxed);
    ]

let store_mo cfg rng =
  pick rng
    [
      (15 + sc_weight cfg, Memorder.Seq_cst);
      (35, Memorder.Release);
      (50, Memorder.Relaxed);
    ]

let rmw_mo cfg rng =
  pick rng
    [
      (15 + sc_weight cfg, Memorder.Seq_cst);
      (25, Memorder.Acq_rel);
      (15, Memorder.Acquire);
      (15, Memorder.Release);
      (30, Memorder.Relaxed);
    ]

let fence_mo cfg rng =
  pick rng
    [
      (25 + sc_weight cfg, Memorder.Seq_cst);
      (25, Memorder.Acq_rel);
      (25, Memorder.Acquire);
      (25, Memorder.Release);
    ]

(* rmw-chain contends on location 0 so chains of RMWs stack up in the
   mo-graph (the release-sequence-heavy shape of Figure 11). *)
let atomic_loc cfg rng n =
  if cfg.g_profile = Rmw_chain && n > 1 && Rng.int rng 100 < 70 then 0
  else Rng.int rng n

type kind_tag =
  | K_load
  | K_store
  | K_add
  | K_cas
  | K_xchg
  | K_fence
  | K_na_read
  | K_na_write
  | K_reuse_load
  | K_reuse_store
  | K_lock
  | K_unlock
  | K_yield

let kind_weights cfg ~na_locs ~mutexes ~can_lock ~can_unlock =
  let rmw = if cfg.g_profile = Rmw_chain then 3 else 1 in
  let reuse = if cfg.g_profile = Mixed_atomicity then 6 else 0 in
  let na = if na_locs > 0 then 10 else 0 in
  let mu w = if mutexes > 0 then w else 0 in
  [
    (20, K_load);
    (20, K_store);
    (6 * rmw, K_add);
    (4 * rmw, K_cas);
    (3 * rmw, K_xchg);
    (6, K_fence);
    (na, K_na_read);
    (na, K_na_write);
    (reuse, K_reuse_load);
    (reuse, K_reuse_store);
    (mu (if can_lock then 6 else 0), K_lock);
    (mu (if can_unlock then 8 else 0), K_unlock);
    (3, K_yield);
  ]

let gen_value rng = Rng.int rng 8

(* One thread body.  [held] is the stack of currently-held mutexes; the
   ordered discipline (lock only mutexes with an index above the
   innermost held one, unlock innermost-first) makes any interleaving of
   generated bodies deadlock-free, and the trailing unlocks balance every
   path. *)
let gen_body cfg rng ~atomic_locs ~na_locs ~mutexes ~ops =
  let body = ref [] in
  let emit o = body := o :: !body in
  let held = ref [] in
  for _ = 1 to ops do
    let top = match !held with [] -> -1 | m :: _ -> m in
    let can_lock = mutexes > 0 && top < mutexes - 1 in
    let can_unlock = !held <> [] in
    match kind_weights cfg ~na_locs ~mutexes ~can_lock ~can_unlock |> pick rng with
    | K_load -> emit (Load { loc = atomic_loc cfg rng atomic_locs; mo = load_mo cfg rng })
    | K_store ->
      emit
        (Store
           {
             loc = atomic_loc cfg rng atomic_locs;
             mo = store_mo cfg rng;
             value = gen_value rng;
           })
    | K_add ->
      emit
        (Add
           {
             loc = atomic_loc cfg rng atomic_locs;
             mo = rmw_mo cfg rng;
             delta = 1 + Rng.int rng 3;
           })
    | K_cas ->
      emit
        (Cas
           {
             loc = atomic_loc cfg rng atomic_locs;
             mo = rmw_mo cfg rng;
             expected = gen_value rng;
             desired = gen_value rng;
           })
    | K_xchg ->
      emit
        (Xchg
           {
             loc = atomic_loc cfg rng atomic_locs;
             mo = rmw_mo cfg rng;
             value = gen_value rng;
           })
    | K_fence -> emit (Fence (fence_mo cfg rng))
    | K_na_read -> emit (Na_read { na = Rng.int rng na_locs })
    | K_na_write -> emit (Na_write { na = Rng.int rng na_locs; value = gen_value rng })
    | K_reuse_load -> emit (Reuse_load { loc = atomic_loc cfg rng atomic_locs })
    | K_reuse_store ->
      emit (Reuse_store { loc = atomic_loc cfg rng atomic_locs; value = gen_value rng })
    | K_lock ->
      let m = top + 1 + Rng.int rng (mutexes - top - 1) in
      held := m :: !held;
      emit (Lock { m })
    | K_unlock ->
      let m = List.hd !held in
      held := List.tl !held;
      emit (Unlock { m })
    | K_yield -> emit Yield
  done;
  List.iter (fun m -> emit (Unlock { m })) !held;
  Array.of_list (List.rev !body)

let generate ~cfg ~seed =
  if cfg.g_threads < 1 || cfg.g_ops < 1 || cfg.g_atomic_locs < 1 then
    invalid_arg "Fuzz.generate: g_threads, g_ops, g_atomic_locs must be >= 1";
  if cfg.g_na_locs < 0 || cfg.g_mutexes < 0 then
    invalid_arg "Fuzz.generate: negative knob";
  let rng = Rng.create seed in
  let spawned = 1 + Rng.int rng cfg.g_threads in
  let atomic_locs = 1 + Rng.int rng cfg.g_atomic_locs in
  let na_locs = if cfg.g_na_locs = 0 then 0 else Rng.int rng (cfg.g_na_locs + 1) in
  let mutexes = if cfg.g_mutexes = 0 then 0 else Rng.int rng (cfg.g_mutexes + 1) in
  let threads =
    Array.init (spawned + 1) (fun t ->
        (* main runs a possibly-empty body between the spawns and joins *)
        let ops =
          if t = 0 then Rng.int rng (cfg.g_ops + 1) else 1 + Rng.int rng cfg.g_ops
        in
        gen_body cfg rng ~atomic_locs ~na_locs ~mutexes ~ops)
  in
  {
    p_seed = seed;
    p_profile = cfg.g_profile;
    p_atomic_locs = atomic_locs;
    p_na_locs = na_locs;
    p_mutexes = mutexes;
    p_threads = threads;
  }

(* ------------------------------------------------------------------ *)
(* Validation *)

let validate = Progir.validate

(* ------------------------------------------------------------------ *)
(* Interpretation *)

let to_closure p () =
  let atomics =
    Array.init p.p_atomic_locs (fun i -> C11.Atomic.make ~name:(Progir.atomic_name i) 0)
  in
  let nas =
    Array.init p.p_na_locs (fun i -> C11.Nonatomic.make ~name:(Progir.na_name i) 0)
  in
  let mutexes = Array.init p.p_mutexes (fun _ -> C11.Mutex.create ()) in
  (* results are accumulated so loads are not dead code, but never used
     for control flow: the program's shape is schedule-independent *)
  let sink = ref 0 in
  let run_op = function
    | Load { loc; mo } -> sink := !sink + C11.Atomic.load ~mo atomics.(loc)
    | Store { loc; mo; value } -> C11.Atomic.store ~mo atomics.(loc) value
    | Add { loc; mo; delta } -> sink := !sink + C11.Atomic.fetch_add ~mo atomics.(loc) delta
    | Cas { loc; mo; expected; desired } ->
      if C11.Atomic.compare_exchange ~mo atomics.(loc) ~expected ~desired then incr sink
    | Xchg { loc; mo; value } -> sink := !sink + C11.Atomic.exchange ~mo atomics.(loc) value
    | Fence mo -> C11.Fence.fence mo
    | Na_read { na } -> sink := !sink + C11.Nonatomic.read nas.(na)
    | Na_write { na; value } -> C11.Nonatomic.write nas.(na) value
    | Reuse_load { loc } -> sink := !sink + C11.Atomic.na_load atomics.(loc)
    | Reuse_store { loc; value } -> C11.Atomic.na_store atomics.(loc) value
    | Lock { m } -> C11.Mutex.lock mutexes.(m)
    | Unlock { m } -> C11.Mutex.unlock mutexes.(m)
    | Yield -> C11.Thread.yield ()
  in
  let run_body t () = Array.iter run_op p.p_threads.(t) in
  let handles =
    Array.init
      (Array.length p.p_threads - 1)
      (fun i -> C11.Thread.spawn (run_body (i + 1)))
  in
  run_body 0 ();
  Array.iter C11.Thread.join handles

(* ------------------------------------------------------------------ *)
(* Pretty-printing as a DSL snippet *)

let pp_mo fmt mo =
  Format.fprintf fmt "Memorder.%s"
    (match mo with
    | Memorder.Relaxed -> "Relaxed"
    | Memorder.Consume -> "Consume"
    | Memorder.Acquire -> "Acquire"
    | Memorder.Release -> "Release"
    | Memorder.Acq_rel -> "Acq_rel"
    | Memorder.Seq_cst -> "Seq_cst")

let pp_op fmt = function
  | Load { loc; mo } ->
    Format.fprintf fmt "ignore (C11.Atomic.load ~mo:%a a%d);" pp_mo mo loc
  | Store { loc; mo; value } ->
    Format.fprintf fmt "C11.Atomic.store ~mo:%a a%d %d;" pp_mo mo loc value
  | Add { loc; mo; delta } ->
    Format.fprintf fmt "ignore (C11.Atomic.fetch_add ~mo:%a a%d %d);" pp_mo mo loc delta
  | Cas { loc; mo; expected; desired } ->
    Format.fprintf fmt
      "ignore (C11.Atomic.compare_exchange ~mo:%a a%d ~expected:%d ~desired:%d);" pp_mo
      mo loc expected desired
  | Xchg { loc; mo; value } ->
    Format.fprintf fmt "ignore (C11.Atomic.exchange ~mo:%a a%d %d);" pp_mo mo loc value
  | Fence mo -> Format.fprintf fmt "C11.Fence.fence %a;" pp_mo mo
  | Na_read { na } -> Format.fprintf fmt "ignore (C11.Nonatomic.read n%d);" na
  | Na_write { na; value } -> Format.fprintf fmt "C11.Nonatomic.write n%d %d;" na value
  | Reuse_load { loc } -> Format.fprintf fmt "ignore (C11.Atomic.na_load a%d);" loc
  | Reuse_store { loc; value } -> Format.fprintf fmt "C11.Atomic.na_store a%d %d;" loc value
  | Lock { m } -> Format.fprintf fmt "C11.Mutex.lock m%d;" m
  | Unlock { m } -> Format.fprintf fmt "C11.Mutex.unlock m%d;" m
  | Yield -> Format.fprintf fmt "C11.Thread.yield ();"

let pp_body fmt ops =
  if Array.length ops = 0 then Format.fprintf fmt "()"
  else
    Array.iteri
      (fun i op ->
        if i > 0 then Format.fprintf fmt "@ ";
        pp_op fmt op)
      ops

let pp_program fmt p =
  Format.fprintf fmt "@[<v 2>let repro () =@ ";
  Format.fprintf fmt "(* seed 0x%Lx, profile %s *)@ " p.p_seed (profile_name p.p_profile);
  for i = 0 to p.p_atomic_locs - 1 do
    Format.fprintf fmt "let a%d = C11.Atomic.make ~name:\"a%d\" 0 in@ " i i
  done;
  for i = 0 to p.p_na_locs - 1 do
    Format.fprintf fmt "let n%d = C11.Nonatomic.make ~name:\"n%d\" 0 in@ " i i
  done;
  for i = 0 to p.p_mutexes - 1 do
    Format.fprintf fmt "let m%d = C11.Mutex.create () in@ " i
  done;
  for t = 1 to Array.length p.p_threads - 1 do
    Format.fprintf fmt "@[<v 2>let t%d =@ @[<v 2>C11.Thread.spawn (fun () ->@ %a)@]@]@ in@ "
      t pp_body p.p_threads.(t)
  done;
  let main = p.p_threads.(0) in
  let joins = Array.length p.p_threads - 1 in
  if Array.length main > 0 then begin
    pp_body fmt main;
    if joins > 0 then Format.fprintf fmt "@ "
  end;
  for t = 1 to joins do
    Format.fprintf fmt "C11.Thread.join t%d%s" t (if t < joins then ";" else "");
    if t < joins then Format.fprintf fmt "@ "
  done;
  if Array.length main = 0 && joins = 0 then Format.fprintf fmt "()";
  Format.fprintf fmt "@]"

let program_to_string p = Format.asprintf "%a" pp_program p

(* ------------------------------------------------------------------ *)
(* Oracle *)

type finding_kind =
  | Cert_rejected of Check.violation list
  | Engine_crash of string
  | Deadlock
  | Lint_unsound of { race : string }

(* Strip digit runs so keys survive renumbering across programs, shrink
   steps and shards (same normalisation as Check.violation_key). *)
let strip_digits s =
  let b = Buffer.create (String.length s) in
  let in_digits = ref false in
  String.iter
    (fun c ->
      if c >= '0' && c <= '9' then begin
        if not !in_digits then Buffer.add_char b '#';
        in_digits := true
      end
      else begin
        in_digits := false;
        Buffer.add_char b c
      end)
    s;
  Buffer.contents b

(* Location numbers inside violation details are per-program; strip them
   too so the same axiom violated on different generated programs is one
   finding. *)
let finding_key = function
  | Cert_rejected vs -> "cert:" ^ strip_digits (Check.rejection_key vs)
  | Engine_crash msg -> "crash:" ^ strip_digits msg
  | Deadlock -> "deadlock"
  | Lint_unsound { race } -> "lint-unsound:" ^ strip_digits race

type status = Passed of { certified : bool } | Failed of finding_kind

let engine_config ~mutation =
  {
    Engine.default_config with
    Engine.max_steps = 200_000;
    (* probes replace the seed per execution *)
    mutation;
  }

let exec_seed p ~attempt = Rng.substream p.p_seed ~index:attempt

(* [run_one_full] also returns the engine outcome (when the execution
   finished at all) so the campaign can read coverage fingerprints and
   race reports out of it; crash paths have no outcome.  [race_free] is
   the program's lint verdict, forced only when a passing execution
   races. *)
let run_one_full ~config ~certify ~race_free ~seed p =
  let config = { config with Engine.seed; certify } in
  match Engine.run config (to_closure p) with
  | outcome ->
    let status =
      if outcome.Engine.uncaught_exceptions <> [] then
        Failed (Engine_crash (List.hd outcome.Engine.uncaught_exceptions))
      else if outcome.Engine.assertion_failures <> [] then
        Failed (Engine_crash ("assertion: " ^ List.hd outcome.Engine.assertion_failures))
      else if outcome.Engine.deadlock then Failed Deadlock
      else begin
        match outcome.Engine.certificate with
        | Some (Check.Rejected vs) -> Failed (Cert_rejected vs)
        | Some (Check.Certified _) -> Passed { certified = true }
        | Some (Check.Not_applicable _) | None -> Passed { certified = false }
      end
    in
    (* Differential contract with the static analyzer: a dynamic race on
       a statically race-free program means one of the two is wrong about
       the memory model, and the static side only over-approximates
       towards Potential_race — so this is an engine-grade finding,
       shrunk like any other. *)
    let status =
      match status with
      | Passed _ when outcome.Engine.races <> [] && Lazy.force race_free ->
        Failed
          (Lint_unsound { race = Race.dedup_key (List.hd outcome.Engine.races) })
      | s -> s
    in
    (status, Some outcome)
  | exception Execution.Model_error msg ->
    (Failed (Engine_crash ("model error: " ^ msg)), None)
  | exception Engine.Assertion_violation msg ->
    (Failed (Engine_crash ("assertion: " ^ msg)), None)
  | exception e -> (Failed (Engine_crash (Printexc.to_string e)), None)

let lint_verdict ?race_free p =
  match race_free with
  | Some b -> Lazy.from_val b
  | None -> lazy (Lint.statically_race_free p)

let run_one ?race_free ~config ~certify ~seed p =
  let race_free = lint_verdict ?race_free p in
  fst (run_one_full ~config ~certify ~race_free ~seed p)

(* Executions per reproduction probe. *)
let shrink_execs = 8

let reproduces ~config ~key p =
  let race_free = lint_verdict p in
  let rec go attempt =
    if attempt >= shrink_execs then None
    else begin
      let seed = exec_seed p ~attempt in
      match fst (run_one_full ~config ~certify:true ~race_free ~seed p) with
      | Failed kind when String.equal (finding_key kind) key -> Some seed
      | _ -> go (attempt + 1)
    end
  in
  go 0

(* ------------------------------------------------------------------ *)
(* Shrinking *)

(* The op-unit editing machinery (lock/unlock pairs as one unit, index
   removal, thread surgery) is hoisted into Progir so corpus mutation
   (lib/corpus) edits programs with the identical notion of a unit. *)
let remove_indices = Progir.remove_indices
let with_thread = Progir.with_thread
let without_thread = Progir.without_thread
let units_of = Progir.units_of

let deletion_candidates p =
  let thread_cands =
    List.filter_map
      (fun t ->
        if t = 0 && Array.length p.p_threads.(0) = 0 then None
        else if t > 0 || Array.length p.p_threads.(0) > 0 then Some (without_thread p t)
        else None)
      (List.init (Array.length p.p_threads) Fun.id)
  in
  let op_cands =
    List.concat_map
      (fun t ->
        List.map
          (fun unit -> with_thread p t (remove_indices p.p_threads.(t) unit))
          (units_of p.p_threads.(t)))
      (List.init (Array.length p.p_threads) Fun.id)
  in
  (* drop the degenerate candidate equal to deleting the main body twice *)
  List.filter (fun c -> Array.length c.p_threads >= 1) (thread_cands @ op_cands)

(* One-step-weaker memory orders per access category; shrinking walks
   these chains downwards while the failure keeps reproducing, so the
   final repro names the weakest orders that still expose the bug. *)
let weaker_load = function
  | Memorder.Seq_cst -> [ Memorder.Acquire ]
  | Memorder.Acquire -> [ Memorder.Relaxed ]
  | Memorder.Consume -> [ Memorder.Relaxed ]
  | _ -> []

let weaker_store = function
  | Memorder.Seq_cst -> [ Memorder.Release ]
  | Memorder.Release -> [ Memorder.Relaxed ]
  | _ -> []

let weaker_rmw = function
  | Memorder.Seq_cst -> [ Memorder.Acq_rel ]
  | Memorder.Acq_rel -> [ Memorder.Acquire; Memorder.Release ]
  | Memorder.Acquire -> [ Memorder.Relaxed ]
  | Memorder.Release -> [ Memorder.Relaxed ]
  | Memorder.Consume -> [ Memorder.Relaxed ]
  | _ -> []

let weaker_fence = function
  | Memorder.Seq_cst -> [ Memorder.Acq_rel ]
  | Memorder.Acq_rel -> [ Memorder.Acquire; Memorder.Release ]
  | _ -> []

let weakenings_of = function
  | Load f -> List.map (fun mo -> Load { f with mo }) (weaker_load f.mo)
  | Store f -> List.map (fun mo -> Store { f with mo }) (weaker_store f.mo)
  | Add f -> List.map (fun mo -> Add { f with mo }) (weaker_rmw f.mo)
  | Cas f -> List.map (fun mo -> Cas { f with mo }) (weaker_rmw f.mo)
  | Xchg f -> List.map (fun mo -> Xchg { f with mo }) (weaker_rmw f.mo)
  | Fence mo -> List.map (fun mo -> Fence mo) (weaker_fence mo)
  | Na_read _ | Na_write _ | Reuse_load _ | Reuse_store _ | Lock _ | Unlock _ | Yield
    ->
    []

(* Drop locations and mutexes no surviving op references, renumbering
   the rest in declaration order.  Allocation is visible to the model
   ([Atomic.make] performs an init store), so compaction can change the
   execution and is offered as a shrink candidate like any other, kept
   only while the failure reproduces. *)
let compact p =
  let used_a = Array.make p.p_atomic_locs false in
  let used_n = Array.make p.p_na_locs false in
  let used_m = Array.make p.p_mutexes false in
  Array.iter
    (Array.iter (function
      | Load { loc; _ }
      | Store { loc; _ }
      | Add { loc; _ }
      | Cas { loc; _ }
      | Xchg { loc; _ }
      | Reuse_load { loc }
      | Reuse_store { loc; _ } ->
        used_a.(loc) <- true
      | Na_read { na } | Na_write { na; _ } -> used_n.(na) <- true
      | Lock { m } | Unlock { m } -> used_m.(m) <- true
      | Fence _ | Yield -> ()))
    p.p_threads;
  let remap used =
    let next = ref 0 in
    Array.map (fun u -> if u then (incr next; !next - 1) else -1) used
  in
  let map_a = remap used_a and map_n = remap used_n and map_m = remap used_m in
  let count m = Array.fold_left (fun acc i -> if i >= 0 then acc + 1 else acc) 0 m in
  if count map_a = p.p_atomic_locs && count map_n = p.p_na_locs
     && count map_m = p.p_mutexes
  then None
  else
    Some
      {
        p with
        p_atomic_locs = count map_a;
        p_na_locs = count map_n;
        p_mutexes = count map_m;
        p_threads =
          Array.map
            (Array.map (function
              | Load f -> Load { f with loc = map_a.(f.loc) }
              | Store f -> Store { f with loc = map_a.(f.loc) }
              | Add f -> Add { f with loc = map_a.(f.loc) }
              | Cas f -> Cas { f with loc = map_a.(f.loc) }
              | Xchg f -> Xchg { f with loc = map_a.(f.loc) }
              | Reuse_load f -> Reuse_load { loc = map_a.(f.loc) }
              | Reuse_store f -> Reuse_store { f with loc = map_a.(f.loc) }
              | Na_read f -> Na_read { na = map_n.(f.na) }
              | Na_write f -> Na_write { f with na = map_n.(f.na) }
              | Lock f -> Lock { m = map_m.(f.m) }
              | Unlock f -> Unlock { m = map_m.(f.m) }
              | (Fence _ | Yield) as o -> o))
            p.p_threads;
      }

let shrink ?(on_accept = fun _ -> ()) ~config ~key p =
  let steps = ref 0 in
  let cur = ref p in
  let best_seed = ref (exec_seed p ~attempt:0) in
  let accept candidate seed =
    cur := candidate;
    best_seed := seed;
    incr steps;
    on_accept candidate
  in
  let try_candidate candidate =
    match reproduces ~config ~key candidate with
    | Some seed ->
      accept candidate seed;
      true
    | None -> false
  in
  (* Passes repeat to a fixpoint.  Within a pass, positions are re-tried
     in place after an acceptance (indices shift under deletion; an order
     may admit a further weakening), so one pass does as much work as it
     can before the next full scan. *)
  let thread_pass () =
    let changed = ref false in
    let t = ref (Array.length !cur.p_threads - 1) in
    while !t >= 0 do
      let deletable =
        if !t = 0 then Array.length !cur.p_threads.(0) > 0
        else !t < Array.length !cur.p_threads
      in
      if deletable && try_candidate (without_thread !cur !t) then changed := true;
      decr t
    done;
    !changed
  in
  let op_pass () =
    let changed = ref false in
    let t = ref 0 in
    while !t < Array.length !cur.p_threads do
      let u = ref 0 in
      let continue = ref true in
      while !continue do
        let units = units_of !cur.p_threads.(!t) in
        if !u >= List.length units then continue := false
        else begin
          let unit = List.nth units !u in
          let candidate = with_thread !cur !t (remove_indices !cur.p_threads.(!t) unit) in
          if try_candidate candidate then changed := true
            (* stay at [u]: the next unit slid into this position *)
          else incr u
        end
      done;
      incr t
    done;
    !changed
  in
  let weaken_pass () =
    let changed = ref false in
    Array.iteri
      (fun t _ ->
        let i = ref 0 in
        while !i < Array.length !cur.p_threads.(t) do
          let op = !cur.p_threads.(t).(!i) in
          let accepted =
            List.exists
              (fun op' ->
                let ops = Array.copy !cur.p_threads.(t) in
                ops.(!i) <- op';
                try_candidate (with_thread !cur t ops))
              (weakenings_of op)
          in
          if accepted then changed := true  (* retry same op: may weaken further *)
          else incr i
        done)
      !cur.p_threads;
    !changed
  in
  let compact_pass () =
    match compact !cur with
    | None -> false
    | Some candidate -> try_candidate candidate
  in
  let progress = ref true in
  while !progress do
    let a = thread_pass () in
    let b = op_pass () in
    let c = weaken_pass () in
    let d = compact_pass () in
    progress := a || b || c || d
  done;
  (!cur, !best_seed, !steps)

(* ------------------------------------------------------------------ *)
(* Campaigns *)

type finding = {
  f_index : int;
  f_seed : int64;
  f_key : string;
  f_kind : finding_kind;
  f_repro : program;
  f_exec_seed : int64;
  f_shrink_steps : int;
  f_ops_before : int;
  f_ops_after : int;
}

type campaign_cfg = {
  c_programs : int;
  c_seed : int64;
  c_jobs : int;
  c_gen : gen_cfg;
  c_mutation : Execution.mutation option;
  c_corpus : Corpus.plan option;
}

let default_campaign_cfg =
  {
    c_programs = 200;
    c_seed = 1L;
    c_jobs = 1;
    c_gen = default_gen_cfg;
    c_mutation = None;
    c_corpus = None;
  }

type corpus_stats = {
  k_seeded : int;
  k_fresh : int;
  k_mutated : int;
  k_admitted : Corpus.entry list;
}

type report = {
  r_programs : int;
  r_certified : int;
  r_cert_rejected : int;
  r_crashes : int;
  r_findings : finding list;
  r_shrink_steps : int;
  r_gen_ops : int;
  r_coverage : Cov.summary option;
  r_lint_potential : int;
  r_lint_unsound : int;
  r_corpus : corpus_stats option;
  r_certified_ops : int;
  r_retired_prefix_ops : int;
}

(* A corpus-admission candidate: a program whose execution produced at
   least one shard-novel coverage key.  Whether any of those keys are
   *globally* novel is decided at the round barrier ([run_rounds]),
   where every shard's candidates are replayed in ascending global index
   order — so admissions are a pure function of the campaign, not of the
   sharding. *)
type cand = {
  cd_digest : string;  (* execution shape digest, "" when no shape *)
  cd_keys : string list;  (* shard-novel keys, fixed emission order *)
  cd_program : program;
}

type shard = {
  sh_certified : int;
  sh_cert_rejected : int;
  sh_crashes : int;
  sh_gen_ops : int;
  sh_findings : (int * finding) list;  (** ascending global index *)
  sh_cov : Cov.shard option;
  sh_lint_potential : int;
  sh_lint_unsound : int;
  sh_fresh : int;
  sh_mutated : int;
  sh_cands : (int * cand) list;  (** ascending global index *)
  sh_certified_ops : int;  (** streaming-certifier totals, primary probes *)
  sh_retired_ops : int;
}

(* Extra executions granted to a statically race-potential program whose
   primary probe passed. *)
let lint_execs = 2

(* One worker's leapfrog shard: global indices worker, worker+jobs, ...
   Shrinking happens at the first local occurrence of a key; the merge
   keeps the lowest global index per key, whose shrink is a pure function
   of that program, so the merged findings match the sequential run's. *)
(* [start]/[stride] generalise the leapfrog (worker [w] of [j] is
   [start = w], [stride = j]) so the multi-process fabric can nest its
   process-level sharding over the in-process one. *)
(* Schedule stream salt: the mutate-vs-fresh decision for program [i]
   draws from substream(program seed, corpus_salt), far outside the small
   attempt indices execution seeds use, so corpus scheduling never
   correlates with schedule exploration. *)
let corpus_salt = 1_000_003

let campaign_shard ?(coverage = false) ?(progress = Progress.null)
    ?(profile = Profile.null) ?(metrics = Metrics.null) ?stop ~cfg ~start
    ~stride () =
  (* shrinking replays use the base config: coverage fingerprints are only
     wanted for the campaign's primary executions *)
  let config = engine_config ~mutation:cfg.c_mutation in
  let exec_config = { config with Engine.coverage } in
  let cov = if coverage then Some (Cov.create ()) else None in
  let progress_on = Progress.enabled progress in
  let certified = ref 0 in
  let cert_rejected = ref 0 in
  let crashes = ref 0 in
  let gen_ops = ref 0 in
  let lint_potential = ref 0 in
  let lint_unsound = ref 0 in
  let findings = ref [] in
  let seen = Hashtbl.create 8 in
  let track_cands = cfg.c_corpus <> None in
  let snapshot =
    match cfg.c_corpus with
    | Some pl -> Array.of_list pl.Corpus.pl_entries
    | None -> [||]
  in
  let fresh = ref 0 in
  let mutated = ref 0 in
  let cands = ref [] in
  let certified_ops = ref 0 in
  let retired_ops = ref 0 in
  let stop = match stop with Some s -> s | None -> cfg.c_programs in
  let index = ref start in
  while !index < stop do
    let i = !index in
    let seed = Rng.substream cfg.c_seed ~index:i in
    let t0 = Profile.start profile in
    (* Deterministic mutate-or-fresh schedule: a pure function of
       (campaign seed, i, snapshot), independent of sharding.  A mutated
       program keeps this index's seed so its execution seeds replay
       exactly like a generated program's. *)
    let prog =
      match cfg.c_corpus with
      | Some pl when Array.length snapshot > 0 ->
        let srng = Rng.create (Rng.substream seed ~index:corpus_salt) in
        if Rng.int srng 100 < pl.Corpus.pl_mutate_pct then begin
          incr mutated;
          let e = snapshot.(Rng.int srng (Array.length snapshot)) in
          { (Corpus.mutate ~rng:srng e.Corpus.en_program) with p_seed = seed }
        end
        else begin
          incr fresh;
          generate ~cfg:cfg.c_gen ~seed
        end
      | Some _ ->
        incr fresh;
        generate ~cfg:cfg.c_gen ~seed
      | None -> generate ~cfg:cfg.c_gen ~seed
    in
    Profile.stop profile "fuzz_generate" t0;
    gen_ops := !gen_ops + op_count prog;
    Metrics.incr metrics "fuzz.programs";
    (* Static pass over the generated program: the verdict steers
       generation effort (race-potential programs get extra executions
       below) and the hygiene hits feed coverage. *)
    let lres = Lint.analyze prog in
    let racy = not lres.Lint.res_race_free in
    if racy then begin
      incr lint_potential;
      Metrics.incr metrics "fuzz.lint_potential"
    end;
    (* Every program is certified: the certifier is the oracle, and an
       execution it skips cannot yield a finding.  Certification costs
       in proportion to the execution (window-sized stream tables, a
       dense per-location coherence core), so short programs stay cheap
       to certify. *)
    let t1 = Profile.start profile in
    let race_free = lres.Lint.res_race_free in
    let primary_status, outcome =
      run_one_full ~config:exec_config ~certify:true
        ~race_free:(Lazy.from_val race_free)
        ~seed:(exec_seed prog ~attempt:0) prog
    in
    Profile.stop profile "fuzz_execute" t1;
    (* Lint-steered prioritizer: statically race-potential programs whose
       primary probe passed get up to [lint_execs] extra schedules —
       racy shapes are where engine/certifier disagreements hide.  Extra
       probes replay under the base config (no coverage, like shrink
       replays) and are pure functions of (program, attempt), so the
       outcome is jobs-independent. *)
    let status =
      match primary_status with
      | Passed _ when racy ->
        let rec probe attempt =
          if attempt > lint_execs then primary_status
          else begin
            match
              run_one ~race_free ~config ~certify:true
                ~seed:(exec_seed prog ~attempt) prog
            with
            | Failed _ as f -> f
            | Passed _ -> probe (attempt + 1)
          end
        in
        probe 1
      | s -> s
    in
    (match outcome with
    | Some o ->
      certified_ops := !certified_ops + o.Engine.certified_ops;
      retired_ops := !retired_ops + o.Engine.retired_prefix_ops;
      if progress_on then
        Progress.account_certified progress ~certified:o.Engine.certified_ops
          ~retired:o.Engine.retired_prefix_ops
    | None -> ());
    (* Shard-novel keys this program produced, collected in a fixed
       emission order (races, violation, shape) so a candidate's key list
       is deterministic.  Lint rule hits stay out of the corpus novelty
       namespace — they describe the program, not an explored shape. *)
    let cand_keys = ref [] in
    let note k = if track_cands then cand_keys := k :: !cand_keys in
    let novel =
      match (cov, outcome) with
      | Some acc, Some o ->
        List.iter
          (fun r ->
            let k = Race.dedup_key r in
            if Cov.observe_race acc ~index:i k then note ("race:" ^ k))
          o.Engine.races;
        List.iter
          (fun h -> ignore (Cov.observe_lint acc ~index:i h.Lint.h_rule))
          lres.Lint.res_hits;
        (match status with
        | Failed (Cert_rejected vs) ->
          let k = strip_digits (Check.rejection_key vs) in
          if Cov.observe_violation acc ~index:i k then note ("violation:" ^ k)
        | _ -> ());
        (match o.Engine.shape with
        | Some sg ->
          let n = Cov.observe acc ~index:i sg in
          if n then note ("shape:" ^ sg.Cov.sg_digest);
          n
        | None -> false)
      | _ -> false
    in
    (match !cand_keys with
    | [] -> ()
    | keys ->
      let digest =
        match Option.bind outcome (fun o -> o.Engine.shape) with
        | Some sg -> sg.Cov.sg_digest
        | None -> ""
      in
      cands :=
        (i, { cd_digest = digest; cd_keys = List.rev keys; cd_program = prog })
        :: !cands);
    (* [certified] counts primary probes the certifier accepted, whether
       or not a lint-steered extra probe later failed — keeping the
       readout independent of lint_execs. *)
    (match primary_status with
    | Passed { certified = c } ->
      if c then begin
        incr certified;
        Metrics.incr metrics "fuzz.certified"
      end
    | Failed _ -> ());
    let new_finding = ref false in
    (match status with
    | Passed _ -> ()
    | Failed kind ->
      (match kind with
      | Cert_rejected _ ->
        incr cert_rejected;
        Metrics.incr metrics "fuzz.cert_rejected"
      | Engine_crash _ | Deadlock ->
        incr crashes;
        Metrics.incr metrics "fuzz.crashes"
      | Lint_unsound _ ->
        incr lint_unsound;
        Metrics.incr metrics "fuzz.lint_unsound");
      let key = finding_key kind in
      if not (Hashtbl.mem seen key) then begin
        Hashtbl.add seen key ();
        new_finding := true;
        Metrics.incr metrics "fuzz.findings";
        let t2 = Profile.start profile in
        let repro, rseed, steps =
          shrink ~config ~key prog
        in
        Profile.stop profile "fuzz_shrink" t2;
        Metrics.incr metrics ~by:steps "fuzz.shrink_steps";
        findings :=
          ( i,
            {
              f_index = i;
              f_seed = seed;
              f_key = key;
              f_kind = kind;
              f_repro = repro;
              f_exec_seed = rseed;
              f_shrink_steps = steps;
              f_ops_before = op_count prog;
              f_ops_after = op_count repro;
            } )
          :: !findings
      end);
    if progress_on then Progress.tick progress ~novel ~finding:!new_finding;
    index := !index + stride
  done;
  {
    sh_certified = !certified;
    sh_cert_rejected = !cert_rejected;
    sh_crashes = !crashes;
    sh_gen_ops = !gen_ops;
    sh_findings = List.rev !findings;
    sh_cov = Option.map Cov.shard cov;
    sh_lint_potential = !lint_potential;
    sh_lint_unsound = !lint_unsound;
    sh_fresh = !fresh;
    sh_mutated = !mutated;
    sh_cands = List.rev !cands;
    sh_certified_ops = !certified_ops;
    sh_retired_ops = !retired_ops;
  }

let merge_shards ?admitted cfg shards =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 shards in
  let findings =
    Par.Merge.dedup_indexed ~key:(fun f -> f.f_key) (List.map (fun s -> s.sh_findings) shards)
    |> List.map snd
  in
  {
    r_programs = cfg.c_programs;
    r_certified = sum (fun s -> s.sh_certified);
    r_cert_rejected = sum (fun s -> s.sh_cert_rejected);
    r_crashes = sum (fun s -> s.sh_crashes);
    r_findings = findings;
    (* summed over the merged findings, not the shards, so the readout is
       jobs-independent (losing shards shrink duplicates of a key) *)
    r_shrink_steps = List.fold_left (fun acc f -> acc + f.f_shrink_steps) 0 findings;
    r_gen_ops = sum (fun s -> s.sh_gen_ops);
    r_coverage =
      (match List.filter_map (fun s -> s.sh_cov) shards with
      | [] -> None
      | cov_shards -> Some (Cov.merge cov_shards));
    r_lint_potential = sum (fun s -> s.sh_lint_potential);
    r_lint_unsound = sum (fun s -> s.sh_lint_unsound);
    r_corpus =
      (match cfg.c_corpus with
      | None -> None
      | Some pl ->
        Some
          {
            k_seeded = List.length pl.Corpus.pl_entries;
            k_fresh = sum (fun s -> s.sh_fresh);
            k_mutated = sum (fun s -> s.sh_mutated);
            k_admitted = Option.value admitted ~default:[];
          });
    r_certified_ops = sum (fun s -> s.sh_certified_ops);
    r_retired_prefix_ops = sum (fun s -> s.sh_retired_ops);
  }

(* The round loop shared by every campaign driver.  A corpus campaign runs
   in rounds of [pl_round] programs.  Within a round every shard records
   its *shard*-novel executions as candidates; at the round barrier all
   candidates are replayed in ascending global index order against the
   accumulated key set.  A key's globally first producer is also
   shard-first in every sharding, so it is a candidate in every sharding,
   which makes the admitted entry list (and each entry's [en_keys]) a pure
   function of the campaign — the -j N / --workers N parity argument. *)
let run_rounds ~wave cfg =
  match cfg.c_corpus with
  | None -> Result.map (merge_shards cfg) (wave ~cfg ~lo:0 ~hi:cfg.c_programs)
  | Some _ when cfg.c_programs = 0 ->
    (* no rounds: the plain campaign's one empty wave, as the fabric runs *)
    Result.map (merge_shards cfg) (wave ~cfg ~lo:0 ~hi:0)
  | Some plan0 ->
    let known = Hashtbl.create 64 in
    let digests = Hashtbl.create 64 in
    List.iter
      (fun (e : Corpus.entry) ->
        Hashtbl.replace digests e.Corpus.en_digest ();
        Hashtbl.replace known ("shape:" ^ e.Corpus.en_digest) ();
        List.iter (fun k -> Hashtbl.replace known k ()) e.Corpus.en_keys)
      plan0.Corpus.pl_entries;
    let absorb shards =
      List.concat_map (fun s -> s.sh_cands) shards
      |> List.sort (fun (a, _) (b, _) -> compare (a : int) b)
      |> List.filter_map (fun (i, cd) ->
             let novel_keys =
               List.filter (fun k -> not (Hashtbl.mem known k)) cd.cd_keys
             in
             (* mark *all* the candidate's keys: later candidates must not
                re-claim a key their global predecessor produced *)
             List.iter (fun k -> Hashtbl.replace known k ()) cd.cd_keys;
             if
               novel_keys = [] || cd.cd_digest = ""
               || Hashtbl.mem digests cd.cd_digest
             then None
             else begin
               Hashtbl.replace digests cd.cd_digest ();
               Some
                 {
                   Corpus.en_digest = cd.cd_digest;
                   en_index = i;
                   en_seed = cd.cd_program.p_seed;
                   en_keys = novel_keys;
                   en_program = cd.cd_program;
                 }
             end)
    in
    let rec round lo admitted_rev shards_rev =
      if lo >= cfg.c_programs then
        Ok
          (merge_shards ~admitted:(List.rev admitted_rev) cfg
             (List.concat (List.rev shards_rev)))
      else
        let hi = min cfg.c_programs (lo + plan0.Corpus.pl_round) in
        (* the whole round mutates from one snapshot: seeded entries plus
           everything admitted at earlier barriers *)
        let entries = plan0.Corpus.pl_entries @ List.rev admitted_rev in
        let plan = { plan0 with Corpus.pl_entries = entries } in
        match wave ~cfg:{ cfg with c_corpus = Some plan } ~lo ~hi with
        | Error e -> Error e
        | Ok shards ->
          let admitted_rev = List.rev_append (absorb shards) admitted_rev in
          round hi admitted_rev (shards :: shards_rev)
    in
    round 0 [] []

let merge_shard_list ?admitted cfg shards = merge_shards ?admitted cfg shards

let campaign ?profile ?metrics ?(coverage = false) ?(progress = Progress.null)
    cfg =
  if cfg.c_programs < 0 then invalid_arg "Fuzz.campaign: c_programs must be >= 0";
  if cfg.c_jobs < 1 then invalid_arg "Fuzz.campaign: c_jobs must be >= 1";
  (* corpus guidance defines novelty by coverage fingerprints, so a
     corpus campaign forces them on *)
  let coverage = coverage || cfg.c_corpus <> None in
  (* [progress] is shared across domains: atomic counters,
     mutex-serialised emission *)
  let wave ~cfg ~lo ~hi =
    Ok
      (Par.domains ?profile ?metrics ~jobs:cfg.c_jobs ~total:cfg.c_programs
         (fun ~worker ~jobs ~profile ~metrics ->
           campaign_shard ~coverage ~progress ~profile ~metrics ~cfg
             ~start:(lo + worker) ~stop:hi ~stride:jobs ()))
  in
  let report = Result.get_ok (run_rounds ~wave cfg) in
  if Progress.enabled progress then
    Progress.finish
      ?novel:(Option.map Cov.distinct_shapes report.r_coverage)
      ~findings:(List.length report.r_findings)
      progress;
  report

(* ------------------------------------------------------------------ *)
(* Reports *)

let kind_to_json = function
  | Cert_rejected vs ->
    Jsonx.Obj
      [ ("kind", Jsonx.String "cert_rejected");
        ("violations", Jsonx.List (List.map Check.violation_to_json vs)) ]
  | Engine_crash msg ->
    Jsonx.Obj [ ("kind", Jsonx.String "engine_crash"); ("message", Jsonx.String msg) ]
  | Deadlock -> Jsonx.Obj [ ("kind", Jsonx.String "deadlock") ]
  | Lint_unsound { race } ->
    Jsonx.Obj [ ("kind", Jsonx.String "lint_unsound"); ("race", Jsonx.String race) ]

let finding_to_json f =
  Jsonx.Obj
    [
      ("schema", Jsonx.String "c11fuzz-finding-v1");
      ("index", Jsonx.Int f.f_index);
      ("seed", Jsonx.String (Printf.sprintf "0x%Lx" f.f_seed));
      ("key", Jsonx.String f.f_key);
      ("finding", kind_to_json f.f_kind);
      ("exec_seed", Jsonx.String (Printf.sprintf "0x%Lx" f.f_exec_seed));
      ("shrink_steps", Jsonx.Int f.f_shrink_steps);
      ("ops_before", Jsonx.Int f.f_ops_before);
      ("ops_after", Jsonx.Int f.f_ops_after);
      ("repro", Jsonx.String (program_to_string f.f_repro));
    ]

let report_to_json r =
  Jsonx.Obj
    ([
       ("programs", Jsonx.Int r.r_programs);
       ("certified", Jsonx.Int r.r_certified);
       ("cert_rejected", Jsonx.Int r.r_cert_rejected);
       ("crashes", Jsonx.Int r.r_crashes);
       ("findings", Jsonx.List (List.map finding_to_json r.r_findings));
       ("shrink_steps", Jsonx.Int r.r_shrink_steps);
       ("generated_ops", Jsonx.Int r.r_gen_ops);
       ("lint_potential", Jsonx.Int r.r_lint_potential);
       ("lint_unsound", Jsonx.Int r.r_lint_unsound);
     ]
    @ (match r.r_coverage with
      | None -> []
      | Some c ->
        [
          ("distinct_shapes", Jsonx.Int (Cov.distinct_shapes c));
          ("coverage", Cov.summary_to_json c);
        ])
    @
    match r.r_corpus with
    | None -> []
    | Some k ->
      [
        ( "corpus",
          Jsonx.Obj
            [
              ("seeded", Jsonx.Int k.k_seeded);
              ("fresh", Jsonx.Int k.k_fresh);
              ("mutated", Jsonx.Int k.k_mutated);
              ("admitted", Jsonx.Int (List.length k.k_admitted));
              ( "admitted_digests",
                Jsonx.List
                  (List.map
                     (fun (e : Corpus.entry) -> Jsonx.String e.Corpus.en_digest)
                     k.k_admitted) );
            ] );
      ])

let pp_finding fmt f =
  Format.fprintf fmt
    "@[<v>finding at program %d (seed 0x%Lx)@   key: %s@   shrunk %d -> %d ops in %d \
     steps; replay exec seed 0x%Lx@   %a@]"
    f.f_index f.f_seed f.f_key f.f_ops_before f.f_ops_after f.f_shrink_steps
    f.f_exec_seed pp_program f.f_repro

let pp_report fmt r =
  Format.fprintf fmt
    "@[<v>programs:      %d@ certified:     %d@ cert rejected: %d@ crashes:       \
     %d@ generated ops: %d@ lint potential: %d@ lint unsound:  %d@ findings:      %d"
    r.r_programs r.r_certified r.r_cert_rejected r.r_crashes r.r_gen_ops
    r.r_lint_potential r.r_lint_unsound
    (List.length r.r_findings);
  (match r.r_corpus with
  | None -> ()
  | Some k ->
    Format.fprintf fmt
      "@ corpus:        %d seeded, %d fresh, %d mutated, %d admitted"
      k.k_seeded k.k_fresh k.k_mutated
      (List.length k.k_admitted));
  (match r.r_coverage with
  | None -> ()
  | Some c -> Format.fprintf fmt "@ %a" Cov.pp_summary c);
  List.iter (fun f -> Format.fprintf fmt "@ @ %a" pp_finding f) r.r_findings;
  Format.fprintf fmt "@]"
