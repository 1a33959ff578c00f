(** The operational model of C11Tester's C/C++ memory-model fragment
    (Sections 3, 4 and 6 of the paper).

    This module owns all per-execution memory-model state: the global
    sequence counter, per-thread happens-before clock vectors
    ([C], [F^rel], [F^acq] of Figure 9), per-location action lists
    ([ALocInfo] of Figure 10), the seq-cst fence lists, and the mo-graph.
    The exported operations implement the [ATOMIC LOAD]/[STORE]/[RMW]/
    [FENCE] transition rules of Figure 11, using [BuildMayReadFrom]
    (Figure 12) and [ReadPriorSet]/[WritePriorSet] (Figure 13).

    Two memory modes are supported:

    - {!Full_c11} — the paper's fragment: modification order is a set of
      constraints in the mo-graph, so loads may read stores whose
      modification order is inconsistent with execution order.
    - {!Total_mo} — the tsan11/tsan11rec restriction (Section 1.1):
      [hb ∪ sc ∪ rf ∪ mo] must be acyclic with [mo] fixed to store commit
      order.  Used by the baseline tools in the evaluation.

    The record types are exposed so that {!Pruner} (Section 7.1) can walk
    and trim the execution graph. *)

type mode = Full_c11 | Total_mo

(** Deliberate, test-only engine faults.  Each mutation removes one piece
    of memory-model bookkeeping while leaving the rest of the engine
    intact; they exist so the oracle pipeline (axiomatic certifier +
    fuzzer, see [lib/fuzz]) can prove end-to-end that it detects a real
    engine bug.  [None] — the default everywhere — is the correct
    engine; production code never sets a mutation.

    - [Skip_acquire_merge] — acquire loads/RMWs merge the observed
      reads-from clock into the acquire-fence clock instead of the thread
      clock, i.e. every rf-induced synchronizes-with edge is dropped on
      the reader side;
    - [Drop_mo_edge] — every mo-graph update silently loses one of its
      constraint edges;
    - [Weak_release_store] — release stores publish the release-fence
      clock instead of the thread clock, as if they were relaxed (a stale
      clock merge on the writer side);
    - [Race_ignores_sync] — race checks see only the accessing thread's
      own clock slot, so synchronised cross-thread accesses are reported
      as races.  The execution itself is untouched and certifies: only
      the fuzzer's differential against the static linter
      ([Lint_unsound]) can catch it. *)
type mutation =
  | Skip_acquire_merge
  | Drop_mo_edge
  | Weak_release_store
  | Race_ignores_sync

val mutation_name : mutation -> string
val mutation_of_string : string -> mutation option

(** All mutations, for tests that must detect every one. *)
val all_mutations : mutation list

exception Model_error of string

(** Decision returned by an RMW functor: [Rmw_keep] models a failed
    compare-exchange (the operation degenerates to a load), [Rmw_write v]
    stores [v]. *)
type rmw_decision = Rmw_keep | Rmw_write of int

type thread_state = {
  tid : int;
  mutable c : Clockvec.t;  (** C_t: the thread's happens-before clock *)
  mutable frel : Clockvec.t;  (** F^rel_t: release-fence clock *)
  mutable facq : Clockvec.t;  (** F^acq_t: acquire-fence clock *)
  sc_fences : Seqarr.t;  (** the thread's seq_cst fences, oldest first *)
  mutable live : bool;
}

(** Per-(location, thread) actions, oldest first.  Every entry has tid
    [cell_tid], so the prior-set scans are binary searches. *)
type loc_cell = {
  cell_tid : int;
  c_stores : Seqarr.t;  (** stores, RMWs and na-stores *)
  c_accesses : Seqarr.t;  (** loads as well *)
  c_sc_stores : Seqarr.t;
}

type loc_info = {
  li_loc : int;
  mutable cells : loc_cell list;
      (** newest-created first, the order may-read-from visits them in *)
  mutable by_tid : loc_cell array;
      (** the same cells ascending by tid, in [by_tid.(0 .. ncells-1)]:
          the order the prior sets visit them in *)
  mutable cell_tids : int array;
      (** the tids of [by_tid.(0 .. ncells-1)], which the per-access cell
          lookup binary-searches ({!Bytid.search}) *)
  mutable ncells : int;
  mutable last_sc : Action.t option;
      (** newest seq_cst store, maintained incrementally by the store rules;
          after pruning stores call {!refresh_loc_caches} *)
  mutable newest : Action.t option;  (** newest store of any order; ditto *)
  mutable store_count : int;
  mutable rel_head : (int * Clockvec.t) option;
      (** Total_mo only: current C++11-style release-sequence head (owner
          thread, clock at the release).  The tsan-lineage baselines use the
          2011 release-sequence definition, under which later relaxed stores
          by the same thread continue the sequence. *)
}

(** A synchronisation edge fed to the certification sinks: the event
    with sequence number [se_from_seq] on thread [se_from_tid] released
    state that the event [se_to_seq] on thread [se_to_tid] acquired —
    thread spawn, join, or a mutex unlock→lock hand-off.
    [se_to_seq = 0] means "before the target thread's first event"
    (thread start).  Only produced once a sink is installed
    ({!add_cert_sink}). *)
type sync_edge = {
  se_from_tid : int;
  se_from_seq : int;
  se_to_tid : int;
  se_to_seq : int;
}

(** Incremental certification sink (implemented by [Check.Stream] in
    [lib/check] and [Cov.Stream] in [lib/cov]; this module only drives
    it).  [cs_action] is called once per action, in sequence-number
    order and within the operation that created the action, after its
    reads-from field and mo-graph edges are final;
    [cs_edge] once per synchronisation edge, after the source release was
    announced via [cs_release] — so the sink can snapshot its replica
    clocks at the release point instead of retaining history.
    [cs_release_drop] retires a release snapshot that no future edge can
    name (a superseded mutex unlock). *)
type cert_sink = {
  cs_action : Action.t -> unit;
  cs_edge : sync_edge -> unit;
  cs_release : tid:int -> seq:int -> unit;
  cs_release_drop : seq:int -> unit;
}

type t = {
  mode : mode;
  rng : Rng.t;
  race : Race.t;
  graph : Mograph.t;
  obs : Obs.t;  (** C11obs event tracer; {!Obs.null} when tracing is off *)
  prof : Profile.t;  (** per-phase span timers; {!Profile.null} when off *)
  metrics : Metrics.t;  (** counters/histograms; {!Metrics.null} when off *)
  obs_on : bool;
      (** [Obs.enabled obs] (and likewise below), cached at creation so the
          guards on the transition rules are a field load, not a call *)
  prof_on : bool;
  metrics_on : bool;
  mutable cert_on : bool;
      (** produce certifier-grade actions and synchronisation edges for
          the sinks; set by {!add_cert_sink}, so off (zero cost) while no
          sink is installed.  Nothing is retained: the sinks are the only
          consumers *)
  mutation : mutation option;
      (** test-only seeded engine fault; [None] (the default) is the
          correct engine *)
  mutable cert_sink : cert_sink option;
  mutable seq : int;
  mutable threads : thread_state array;
  mutable nthreads : int;
  mutable locs : loc_info option array;
      (** loc-indexed: locations are dense small ints from {!fresh_loc}, so
          all loc-keyed state is direct-indexed growable arrays *)
  mutable values : int array;
      (** commit-order value of every location (0 when never written); what
          a plain non-atomic read observes *)
  mutable atomic_locs : bool array;
  mutable next_loc : int;
  mutable atomic_ops : int;  (** atomic + synchronisation operations *)
  mutable na_ops : int;  (** plain shared-memory accesses *)
  mutable max_graph_size : int;
  mutable pruned_count : int;
  mutable mrf_buf : Action.t array;
      (** reusable may-read-from scratch buffer; only [mrf_buf.(0..mrf_n-1)]
          are meaningful, and only within one transition rule *)
  mutable mrf_n : int;
}

(** [create ~mode ~rng ~race] builds a fresh execution.  The optional
    C11obs handles default to the disabled singletons, making all
    instrumentation in the transition rules zero-cost. *)
val create :
  ?obs:Obs.t ->
  ?prof:Profile.t ->
  ?metrics:Metrics.t ->
  ?mutation:mutation ->
  mode:mode ->
  rng:Rng.t ->
  race:Race.t ->
  unit ->
  t

val thread : t -> int -> thread_state

(** Allocate a fresh location.  Atomic locations participate in the
    mo-graph; non-atomic ones only in the race detector and value table. *)
val fresh_loc : t -> atomic:bool -> name:string option -> int

val is_atomic_loc : t -> int -> bool

(** [new_thread t ~parent] registers a thread; the child's clock vector
    starts as a copy of the parent's (the additional-synchronizes-with edge
    of thread creation). *)
val new_thread : t -> parent:int option -> int

(** [tick_sync t ~tid] consumes a sequence number for a synchronisation
    operation (mutex, condvar, thread create/join/finish) and advances the
    thread's clock. *)
val tick_sync : t -> tid:int -> unit

(** [acquire_cv t ~tid cv] merges [cv] into the thread's clock — the
    acquire half of lock acquisition, condvar wakeup and thread join. *)
val acquire_cv : t -> tid:int -> Clockvec.t -> unit

(** Sequence number of the thread's most recent event (its own clock
    slot) — what a synchronisation edge recorded right now would name. *)
val thread_now : t -> tid:int -> int

(** [cert_sync_edge t ...] records one synchronisation edge for the
    certifier.  {!new_thread} records spawn edges itself; the engine
    records join and mutex hand-off edges (it owns mutex identity).
    Callers should guard on [t.cert_on]. *)
val cert_sync_edge :
  t -> from_tid:int -> from_seq:int -> to_tid:int -> to_seq:int -> unit

(** Install a certification sink (the streaming certifier, the coverage
    fingerprint) and turn on [cert_on].  Must be done before the first
    transition.  With several sinks, each event goes to all of them in
    installation order. *)
val add_cert_sink : t -> cert_sink -> unit

(** [cert_release t ~tid] announces the thread's current clock slot as a
    release point to the sink (thread finish, mutex unlock; spawn is
    announced by {!new_thread} itself).  No-op without a sink. *)
val cert_release : t -> tid:int -> unit

(** [cert_release_drop t ~seq] tells the sink the release snapshot taken
    at [seq] can no longer be named by a future edge. *)
val cert_release_drop : t -> seq:int -> unit

(** [release_snapshot t ~tid] is a copy of the thread's current clock — the
    release half of unlock / signal / thread finish. *)
val release_snapshot : t -> tid:int -> Clockvec.t

val atomic_load :
  t -> tid:int -> loc:int -> mo:Memorder.t -> volatile:bool -> int

val atomic_store :
  t -> tid:int -> loc:int -> mo:Memorder.t -> volatile:bool -> int -> unit

(** [atomic_rmw t ~tid ~loc ~mo ~volatile ~f] reads a store, applies [f] to
    the value read and either stores the result atomically or (on
    [Rmw_keep]) degenerates to a load.  Returns the value read. *)
val atomic_rmw :
  t ->
  tid:int ->
  loc:int ->
  mo:Memorder.t ->
  volatile:bool ->
  f:(int -> rmw_decision) ->
  int

val fence : t -> tid:int -> mo:Memorder.t -> unit

val na_read : t -> tid:int -> loc:int -> int
val na_write : t -> tid:int -> loc:int -> int -> unit

(** Rebuild a location's [last_sc]/[newest] caches from its cells'
    newest entries.  {!Pruner} must call this for every location it
    removed stores from. *)
val refresh_loc_caches : loc_info -> unit

(** Number of stores currently retained across all atomic locations. *)
val graph_footprint : t -> int

(** Internal helpers exposed for tests. *)
module Internal : sig
  val build_may_read_from :
    t -> loc_info -> thread_state -> is_sc:bool -> Action.t list

  val last_sc_store : loc_info -> Action.t option
  val find_loc : t -> int -> loc_info option

  (** ReadPriorSet's candidate-independent part and WritePriorSet
      (Figure 13), highest thread id first (WritePriorSet's last seq_cst
      store last). *)
  val read_prior_base :
    t -> loc_info -> thread_state -> load_mo:Memorder.t -> Action.t list

  val write_prior_set :
    t ->
    loc_info ->
    thread_state ->
    store_mo:Memorder.t ->
    current:Clockvec.t ->
    Action.t list
end
