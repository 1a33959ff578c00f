(** Live campaign progress streaming — the [c11progress-v1] NDJSON
    heartbeat wire format behind [--progress[=FILE|-]] (and, per ROADMAP
    item 5, what [c11test serve] will eventually speak).

    One {!t} serves a whole campaign: workers bump atomic counters from
    their domains; a heartbeat record is emitted (under a mutex, so lines
    never interleave) whenever a bump notices the emission interval has
    elapsed.  Heartbeats carry wall-clock-dependent fields (elapsed
    seconds, exec/s, GC words) and shard-local novelty overapproximations,
    so they are {e not} part of the deterministic surface; the one [final]
    record is, once those wall fields are stripped — parity tests compare
    exactly that. *)

type t

(** [create ~out ~interval_ns ~total] streams heartbeats to [out] at
    most every [interval_ns] (monotonic).  [total] is the planned number
    of executions, [-1] when open-ended. *)
val create : out:out_channel -> interval_ns:int -> total:int -> t

(** Disabled singleton: every operation is a no-op.  [enabled] is the
    cached boolean the instrumentation sites guard on. *)
val null : t

val enabled : t -> bool

(** Credit one execution's streaming-certification work: [certified]
    actions consumed by the streaming certifier and [retired] actions
    whose window storage was freed by hb-closed prefix retirement.  Once
    either campaign total is nonzero, heartbeat and [final] records carry
    [certified_ops] / [retired_prefix_ops] fields; certify-off campaigns
    emit records identical to earlier schema versions.  Safe from any
    domain. *)
val account_certified : t -> certified:int -> retired:int -> unit

(** Record one finished execution; [novel] when it produced a
    shard-novel coverage shape, [finding] when it surfaced a deduplicated
    finding.  Emits a heartbeat when due.  Safe from any domain. *)
val tick : t -> novel:bool -> finding:bool -> unit

(** [observe t ~done_ ~novel ~findings ~certified_ops ~retired_prefix_ops]
    sets the counters to absolute values and emits a heartbeat when due —
    the aggregation entry point for a coordinator that sums cumulative
    counts reported by worker {e processes} (lib/svc) rather than ticking
    per execution.  Safe from any domain. *)
val observe :
  t ->
  done_:int ->
  novel:int ->
  findings:int ->
  certified_ops:int ->
  retired_prefix_ops:int ->
  unit

(** Emit the [final] record.  When the campaign's merged summary is
    known, [?novel] / [?findings] override the shard-local sums with the
    exact merged counts.  Idempotent: only the first call emits. *)
val finish : ?novel:int -> ?findings:int -> t -> unit

(** {1 Reading} *)

(** One [c11progress-v1] record as {!create}'s stream writes it.
    [certified_ops] and [retired_prefix_ops] read 0 where the record
    carries neither (certify-off campaigns). *)
type record = {
  final : bool;  (** the [final] record, not a heartbeat *)
  done_ : int;
  total : int;
  novel : int;
  findings : int;
  certified_ops : int;
  retired_prefix_ops : int;
  elapsed_s : float;
  exec_per_s : float;
  gc_top_heap_words : int;
  gc_heap_words : int;
}

val record_of_json : Jsonx.t -> (record, string) result
