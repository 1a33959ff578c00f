(** The Explore loop (Figure 3 of the paper).

    [run config f] executes the program [f] once under the configured
    memory model and scheduler: it repeatedly asks the scheduler for the
    next enabled thread, interprets that thread's pending visible operation
    against {!Execution}, and resumes the thread's fiber with the result.
    Each call produces one execution; repeated testing is {!Tester}'s job. *)

type volatile_mode =
  | Volatile_atomic of Memorder.t
      (** treat volatile accesses as atomics with this order for loads and
          the matching release order for stores (C11Tester's behaviour;
          Section 7.2) *)
  | Volatile_nonatomic
      (** treat volatile accesses as plain accesses (what tsan11/tsan11rec
          effectively do: volatiles race) *)

type config = {
  mode : Execution.mode;
  sched : Schedule.t;
  volatile_mode : volatile_mode;
  prune : Pruner.policy;
  max_steps : int;  (** abort (livelock guard) after this many steps *)
  seed : int64;
  certify : bool;
      (** run the axiomatic certifier over the execution; off (zero-cost)
          by default.  Actions and sync edges are certified incrementally
          as they happen ({!Check.Stream}), with hb-closed prefix
          retirement, so nothing is retained for the certifier *)
  mutation : Execution.mutation option;
      (** test-only seeded engine fault ({!Execution.mutation}), used to
          prove the oracle pipeline detects real engine bugs; [None] (the
          default) is the correct engine *)
  coverage : bool;
      (** fingerprint the execution into a canonical {!Cov.shape}
          (returned in the outcome) from the certifier-grade event stream
          as it runs ({!Cov.Stream}, nothing retained per action); off
          (zero-cost) by default *)
}

val default_config : config

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
  max_graph_size : int;  (** peak live mo-graph nodes *)
  final_footprint : int;  (** stores retained at exit (after pruning) *)
  pruned_stores : int;
  certificate : Check.verdict option;
      (** the axiomatic certifier's verdict; [Some _] iff [config.certify] *)
  certified_ops : int;
      (** actions consumed by the streaming certifier; 0 when not
          certifying *)
  retired_prefix_ops : int;
      (** actions whose certification window storage was freed by
          hb-closed prefix retirement *)
  shape : Cov.shape option;
      (** canonical coverage fingerprint; [Some _] iff [config.coverage] *)
}

(** Did the execution expose a bug (a data race, an assertion failure, or
    a rejected certificate)? *)
val buggy : outcome -> bool

(** [run config f] executes [f] once.  The optional C11obs handles
    observe the execution without perturbing it (no RNG draws, no model
    state): [obs] receives typed events (memory accesses, sync ops,
    scheduler picks, race reports, prune sweeps), [profile] accumulates
    per-phase span timings, [metrics] collects counters and histograms.
    All three default to their disabled singletons, in which case the
    instrumentation is zero-cost.  [inspect] is called once with the new
    execution, after the certifier's and coverage's sinks are installed
    and before the first thread is added: a test can install its own
    sink there ({!Execution.add_cert_sink}, which turns the execution's
    certification events on) and keep the handle to read the final state
    after the run. *)
val run :
  ?obs:Obs.t ->
  ?profile:Profile.t ->
  ?metrics:Metrics.t ->
  ?inspect:(Execution.t -> unit) ->
  config ->
  (unit -> unit) ->
  outcome

(** Raised by {!Check.assert_that}; aborts the current execution and is
    recorded in the outcome.  Do not catch it inside test programs. *)
exception Assertion_violation of string

(** DSL support: used by {!C11}, not by user code. *)
val assert_that : bool -> string -> unit

(** DSL support: the inline-operation fast path.  While the engine runs a
    fiber, the inline context names the engine state and acting thread;
    non-atomic accesses — which never schedule — are then interpreted as
    direct calls into {!Execution} instead of effect suspensions (same step
    accounting and model behaviour, no fiber round-trip).
    [current_inline_ctx] reads the running domain's context from
    domain-local storage ({!Tester} runs one engine per domain during
    parallel campaigns), installed once per {!run}; it is [None] outside
    fiber execution, where the DSL performs the effect as usual. *)
type inline_ctx

val current_inline_ctx : unit -> inline_ctx option
val inline_na_read : inline_ctx -> loc:int -> int
val inline_na_write : inline_ctx -> loc:int -> int -> unit

val pp_outcome : Format.formatter -> outcome -> unit
