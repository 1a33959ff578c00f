(** C11obs metrics: named counters, gauges and histograms with percentile
    readout.

    A {!t} is a registry.  Instrumented code records through a registry
    handle that defaults to {!null}, whose operations are no-ops, so
    metrics cost one boolean test when disabled.

    Histogram percentiles (p50/p90/p99) are computed over a sliding
    window of the most recent 4096 observations; [count], [total],
    [mean], [min] and [max] are exact over all observations. *)

type t

val create : unit -> t

(** Shared disabled registry: recording into it is a no-op and readouts
    are empty. *)
val null : t

val enabled : t -> bool

val incr : t -> ?by:int -> string -> unit
val set_gauge : t -> string -> float -> unit

(** [max_gauge t name v] keeps the maximum of all recorded values. *)
val max_gauge : t -> string -> float -> unit

(** [observe t name v] adds one sample to histogram [name]. *)
val observe : t -> string -> float -> unit

val counter_value : t -> string -> int
val gauge_value : t -> string -> float option

type snapshot = {
  name : string;
  count : int;
  total : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

val histo_snapshot : t -> string -> snapshot option

(** All readouts are sorted by metric name. *)

val counters : t -> (string * int) list
val gauges : t -> (string * float) list
val histo_snapshots : t -> snapshot list

val reset : t -> unit

(** [absorb ~into src] folds another registry into [into]: counters add,
    gauges merge by maximum (as {!max_gauge}: the engine's one gauge,
    [mograph.peak_nodes], is a peak), and histograms combine exact
    aggregates ([count]/[total]/[min]/[max]) exactly while the percentile
    window appends [src]'s samples.  A registry is single-domain state;
    campaigns record into a private registry per domain and absorb them
    in worker order after the join ({!Par.domains}). *)
val absorb : into:t -> t -> unit

(** JSON readout:
    [{"counters":{..},"gauges":{..},"histograms":{name:{count,total,mean,
    min,max,p50,p90,p99}}}].  The same schema is used by the CLI's
    [--json] output and the bench harness reports. *)
val to_json : t -> Jsonx.t

val pp : Format.formatter -> t -> unit
