(** Axiomatic certification of recorded executions.

    The operational engine ({!Execution}, {!Mograph}) is the only arbiter
    of what an execution means: a bug there silently changes the memory
    model, and the fixed-seed goldens only prove the repository is
    consistent with itself.  This module is a second, independent
    implementation of the declarative C11 fragment, run as a sanitizer
    over finished executions (in the spirit of consistency-checking work
    such as Tunç et al., "Optimal Reads-From Consistency Checking for
    C11-Style Memory Models", and the declarative treatment of Batty et
    al., "Overhauling SC Atomics in C11 and OpenCL").

    From the actions and synchronisation edges an execution feeds its
    certification sinks ({!Execution.cert_sink}) it reconstructs the
    declarative relations from scratch — [sb] (program order per
    thread), [rf] (the recorded reads-from), [mo] (read off the final
    mo-graph by depth-first search, never by clock vectors), [sw]
    (release sequences per C++20, including fence-based synchronisation),
    [hb = (sb ∪ sw)⁺] (computed with its own integer timelines, entirely
    independently of the engine's {!Clockvec}s) and [fr = rf⁻¹ ; mo] —
    and checks the fragment's axioms:

    - {b hb-irreflexivity} — no action happens before itself;
    - {b hb-differential} — the certified [hb] must agree with the
      engine's recorded clock-vector snapshots on {e every} ordered pair
      of actions (this is what catches a dropped or invented
      synchronizes-with edge);
    - {b rf-wf} — every read observes an existing same-location write
      that does not happen after it, and loads return the value written;
    - {b coherence} — per location, [hb|loc ∪ rf ∪ mo ∪ fr] is acyclic
      (subsumes CoRR/CoWR/CoRW), plus the completeness obligations CoWW
      ([a -hb-> b] for same-location writes forces [a -mo-> b]) and CoWR
      (an hb-visible write forces an mo edge to the write actually read);
    - {b rmw-atomicity} — an RMW reads-from a store it immediately
      mo-follows, and no store feeds two RMWs;
    - {b sc} — the total seq_cst order (execution order restricted to
      seq_cst actions) is consistent with certified hb, and a seq_cst
      load observes the last seq_cst store to its location or a
      non-hb-superseded non-sc store (Section 29.3 statement 3);
    - {b theorem-1-differential} — on the final mo-graph,
      {!Mograph.reaches} (clock-vector comparison) must agree with the
      certifier's own depth-first search over the graph's edges and rmw
      links on every live same-location write pair.

    Pruned executions ({!Pruner}) deliberately over-approximate node
    clocks, so the mo-graph differential and the completeness obligations
    are skipped once any store has been pruned (reported in the
    statistics); the remaining axioms still run.  [Total_mo] executions
    use the 2011 release-sequence definition the certifier does not
    model, so they yield {!Not_applicable}. *)

(** Which axiom a violation falls under. *)
type axiom =
  | Hb_irreflexivity
  | Hb_differential
  | Rf_wf
  | Coherence
  | Rmw_atomicity
  | Sc_order
  | Theorem1_differential
  | Sync_wf  (** malformed certifier input (edges naming unknown events) *)

(** A structured counterexample: the axiom violated, the sequence numbers
    of the actions involved (in the order relevant to the axiom — e.g. a
    coherence cycle lists the cycle), and a human-readable explanation. *)
type violation = { axiom : axiom; actions : int list; detail : string }

type stats = {
  actions : int;  (** actions in the certified trace *)
  reads : int;
  writes : int;
  sc_actions : int;
  sync_edges : int;
  hb_pairs : int;  (** ordered action pairs compared in the differential *)
  locations : int;
  graph_checked : bool;
      (** false when pruning forced the mo-graph differential and the
          completeness obligations to be skipped *)
}

type verdict =
  | Certified of stats
  | Rejected of violation list  (** non-empty, in detection order *)
  | Not_applicable of string
      (** an execution with no certification sink installed, so nothing
          was recorded, or an uncertified mode *)

(** [certify exec ~actions ~sync_edges] reconstructs the declarative
    relations of the finished execution [exec] from every action and sync
    edge it fed its sinks, oldest first, and checks every axiom, returning
    all violations found (it does not stop at the first).  The engine
    certifies with {!Stream}; this post-hoc pass is the independent
    reference the test suite compares the stream against, fed by a sink
    that records the events. *)
val certify :
  Execution.t ->
  actions:Action.t list ->
  sync_edges:Execution.sync_edge list ->
  verdict

val axiom_name : axiom -> string

(** Stable cross-execution deduplication key for a violation (axiom name
    plus location/shape, without sequence numbers — the same model bug
    found under different seeds collapses to one key). *)
val violation_key : violation -> string

(** [rejection_key vs] is one seed-stable key for a whole {!Rejected}
    verdict: the lexicographically least {!violation_key} — the dominant
    axiom.  The fuzzer ([lib/fuzz]) uses it as the identity of a finding,
    so one engine bug that trips several axioms at once (or secondary
    axioms only on larger programs) deduplicates to one finding. *)
val rejection_key : violation list -> string

val pp_violation : Format.formatter -> violation -> unit
val pp_verdict : Format.formatter -> verdict -> unit
val violation_to_json : violation -> Jsonx.t
val verdict_to_json : verdict -> Jsonx.t

(** Streaming incremental certification: the same axiom checks as
    {!certify}, run online against an {!Execution.cert_sink} as the
    execution produces actions and sync edges, with hb-closed prefix
    retirement so certification memory is bounded by the live window
    rather than the run length.

    Equivalence with the post-hoc pass is key-level on rejections (same
    verdict constructor; same sorted set of {!violation_key}s, hence the
    same {!rejection_key}) and bit-level on {!Certified} stats.  The test
    suite enforces this on single runs: a sink records the events the
    stream consumes and hands them to {!certify}, over the litmus
    catalog, the workloads, random programs, the seeded engine mutants
    and pruned executions. *)
module Stream : sig
  type t

  (** [create ~exec ~counted] builds a stream for [exec].  [counted tid]
      must say whether thread [tid] still contributes to the readability
      frontier — live and not parked on an unconditional acquire (a join,
      or a lock of a mutex someone holds); retirement only trusts the
      engine clocks of counted threads.  Every table starts small and
      grows with the window, so a short execution pays only for what it
      feeds. *)
  val create : exec:Execution.t -> counted:(int -> bool) -> t

  (** The sink to install with {!Execution.add_cert_sink}. *)
  val sink : t -> Execution.cert_sink

  (** Verdict over everything fed so far.  Idempotent; runs the residual
      window through the exact post-hoc mo-graph checks, and probes RMW
      immediacy once more for every RMW still in the window (an RMW that
      has retired is not probed again). *)
  val finalize : t -> verdict

  (** Actions certified so far (progress counter). *)
  val certified_ops : t -> int

  (** Actions whose window storage has been retired (freed). *)
  val retired_ops : t -> int

  (** Locations {!finalize} checked (0 before it runs). *)
  val checked_locations : t -> int

  (** Of those, the locations the bit-row decision rejected and the
      pair-by-pair pass explained: 0 on an execution that certifies. *)
  val explained_locations : t -> int
end

(** Internal helpers exposed for tests. *)
module Internal : sig
  (** [location_verdicts exec ~actions ~sync_edges] runs, for every
      location of a recorded execution (ascending), the bit-row decision
      and then the pair-by-pair pass over the view it filled, on the
      post-hoc certified clocks: [(loc, decided_clean, violations)], with
      the pass's violations in detection order.  [Check.certify] runs the
      pass only where the decision rejects; here it runs everywhere, and
      the decision is exact when a location is decided clean just when
      [violations] is empty.  [perturb] may change the clocks (one per
      action, in trace order) before both passes read them. *)
  val location_verdicts :
    ?perturb:(int array array -> unit) ->
    Execution.t ->
    actions:Action.t list ->
    sync_edges:Execution.sync_edge list ->
    (int * bool * violation list) list
end
