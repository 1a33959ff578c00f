(** C11cov — execution-shape coverage telemetry.

    Throughput tells a campaign how {e fast} it is exploring; this module
    tells it {e what} it has explored.  Every finished execution is
    fingerprinted into a canonical {!shape}: the deduplicated set of its
    rf / mo / sw edge patterns with threads and locations renamed to
    first-appearance indices, so two executions that differ only in
    thread identities, allocation order or concrete values collapse to
    the same signature (the MCA verification line of work — Singh et al.,
    "Dynamic Verification of C/C++11 Concurrency over Multi Copy
    Atomics" — reports exploration in exactly these terms).  A campaign
    accumulates shapes, race-site keys and certifier violation keys per
    shard and merges the shards order-independently with first-occurrence
    indices ({!Par.Merge} discipline), so a [-j N] coverage report is
    bit-identical to the sequential one.

    Zero-cost-when-off contract: nothing in this module is consulted by
    the engine's hot paths unless [Engine.config.coverage] is set; the
    guard is the same cached-boolean discipline as C11obs. *)

(* ------------------------------------------------------------------ *)
(** {1 Canonical signatures} *)

(** One event in canonicalisable form, an index into the execution's
    event array.  [ev_rf] names the event index of the store a load/RMW
    read from. *)
type ev = {
  ev_tid : int;
  ev_kind : Action.kind;
  ev_loc : int;  (** -1 for fences *)
  ev_mo : Memorder.t;
  ev_rf : int option;
}

(** [edges evs ~sync] is the deduplicated, sorted list of canonical edge
    descriptors of an execution: [rf:*] reads-from edges (with both
    endpoint memory orders), [sw:*] the release/acquire subset of rf,
    [mo:*] per-location adjacent write pairs in commit order, and [st:*]
    recorded synchronisation edges (spawn / join / mutex hand-off), all
    with thread and location labels renamed to first-appearance order.
    Invariant under injective renaming of thread ids and of location ids
    (events keep their order, labels change). *)
val edges : ev array -> sync:(int * int) list -> string list

(** [signature evs ~sync] is [String.concat ";" (edges evs ~sync)]. *)
val signature : ev array -> sync:(int * int) list -> string

(** Stable hex digest of a signature (what reports key shapes by). *)
val digest_hex : string -> string

(** The per-execution fingerprint the engine computes when coverage is
    on. *)
type shape = {
  sg_digest : string;  (** {!digest_hex} of the canonical signature *)
  sg_edges : int;  (** distinct canonical edges *)
  sg_events : int;  (** actions fed to the fingerprint *)
  sg_mo : (string * int) list;
      (** memory-order usage over atomic actions and fences, sorted by
          order name *)
}

(** Fingerprint a finished execution from every action and sync edge it
    fed its certification sinks ({!Execution.cert_sink}), oldest first.
    The reference {!Stream} is tested against, fed by a sink that records
    the events; the engine retains nothing for coverage. *)
val shape_of_execution :
  actions:Action.t list -> sync_edges:Execution.sync_edge list -> shape

(** The fingerprint the engine computes: a certification-sink consumer
    that builds {!shape_of_execution}'s shape as the execution runs.
    Threads and locations are renamed on first appearance, rf / sw / mo
    edges are kept as a deduplicated set of packed integer codes, sync
    edges as distinct thread pairs whose threads are named after the last
    action; {!shape} renders each distinct edge once.  Memory is
    O(threads + locations + distinct edges), independent of the run's
    length.  Fed every action once in sequence-number order (as
    {!Execution.cert_sink} promises), the shape is identical to
    {!shape_of_execution}'s. *)
module Stream : sig
  type t

  val create : unit -> t

  (** Feed one action; its reads-from store must have been fed before. *)
  val action : t -> Action.t -> unit

  (** Feed one synchronisation edge. *)
  val edge : t -> Execution.sync_edge -> unit

  (** The sink to install with {!Execution.add_cert_sink}: actions and
      edges as above, release announcements ignored. *)
  val sink : t -> Execution.cert_sink

  (** The fingerprint of everything fed so far. *)
  val shape : t -> shape
end

(* ------------------------------------------------------------------ *)
(** {1 Campaign accumulation} *)

(** Shard-local accumulator.  Single-domain state: parallel campaigns
    keep one per worker and merge the extracted {!shard}s. *)
type acc

val create : unit -> acc

(** [observe acc ~index shape] records one execution's fingerprint;
    [index] is the global execution index (first occurrence wins in the
    merge).  Returns [true] when the shape is new to {e this} shard. *)
val observe : acc -> index:int -> shape -> bool

(** Record a race site ({!Race.dedup_key}); [true] when new to this
    shard. *)
val observe_race : acc -> index:int -> string -> bool

(** Record a certifier violation key ({!Check.violation_key} in
    [lib/check]); [true] when new to this shard. *)
val observe_violation : acc -> index:int -> string -> bool

(** Record a static-analysis rule hit ({!Lint.rule_names} member); [true]
    when new to this shard. *)
val observe_lint : acc -> index:int -> string -> bool

(** Immutable, cross-domain-safe extract of an accumulator. *)
type shard

val shard : acc -> shard

(** One merged coverage table entry: key, total observation count and
    the lowest global execution index that first produced it. *)
type entry = { e_key : string; e_count : int; e_first : int }

type summary = {
  s_executions : int;
  s_events : int;  (** total actions fingerprinted *)
  s_shapes : entry list;  (** ascending first-occurrence index *)
  s_races : entry list;
  s_violations : entry list;
  s_lint_rules : entry list;
      (** static-analysis rule hits over generated programs (empty when
          the campaign ran no lint pass) *)
  s_mo : (string * int) list;  (** sorted by memory-order name *)
}

(** Order-independent merge ({!Par.Merge.histogram_indexed} under the
    hood): the summary is bit-identical for every sharding of the same
    campaign. *)
val merge : shard list -> summary

val distinct_shapes : summary -> int

(** Novelty query: every coverage key of the summary, prefixed by its
    table ([shape:], [race:], [violation:]) and sorted.  This is the
    key namespace corpus admission (lib/corpus via lib/fuzz) deduplicates
    against; lint rule hits are deliberately excluded — they describe the
    generated program, not an explored execution shape. *)
val summary_keys : summary -> string list

(* ------------------------------------------------------------------ *)
(** {1 Serialisation} *)

(** Compact object embedded in campaign [--json] reports. *)
val summary_to_json : summary -> Jsonx.t

(** The [c11cov-v1] NDJSON artifact, one document per line: a [campaign]
    totals record followed by [shape] / [race_site] / [violation] /
    [lint_rule] / [mo] records. *)
val summary_to_ndjson : summary -> Jsonx.t list

(** Parse a [c11cov-v1] artifact back (any line order; exactly one
    [campaign] record required) — the read side of [c11test report]. *)
val summary_of_ndjson : Jsonx.t list -> (summary, string) result

val pp_summary : Format.formatter -> summary -> unit
