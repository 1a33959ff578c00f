(** C11obs — structured event tracing for the C11Tester reproduction.

    The engine and the memory model emit typed {!event}s through a
    {!t} (tracer), which keeps the most recent events in a fixed-capacity
    ring.  A tracer is one execution's trace: {!Tester.replay} replays one
    execution of a campaign into the caller's ring.  The {!null}
    tracer has no ring and is disabled ({!enabled} is [false]), and
    instrumentation sites skip event construction entirely, so tracing is
    zero-cost when off.

    Events serialise to one JSON object per line (NDJSON) with the stable
    schema
    [{"step":..,"tid":..,"kind":..,"loc":..,"mo":..,"value":..,"detail":..}];
    see {!event_to_json} / {!event_of_json} and {!write_ndjson}. *)

type kind =
  | Load  (** atomic load; [value] = value read, [detail] = rf store seq *)
  | Store  (** atomic store; [value] = value written *)
  | Rmw  (** successful read-modify-write; [value] = value written *)
  | Fence  (** memory fence; [loc] is -1 *)
  | Na_read  (** non-atomic load *)
  | Na_write  (** non-atomic store *)
  | Sync
      (** thread/synchronisation operation (spawn, join, mutex, condvar);
          [detail] names it *)
  | Race_check  (** a data race was detected; [detail] describes it *)
  | Prune
      (** a pruning sweep ran; [detail] carries stores/loads/fences counts *)
  | Sched_pick  (** scheduler decision; [value] = number of enabled threads *)

type event = {
  step : int;  (** logical time: the global sequence number *)
  tid : int;
  kind : kind;
  loc : int;  (** -1 when not location-related *)
  mo : string;  (** memory order, or [""] when not applicable *)
  value : int;
  detail : string;
}

type t

(** [create ~ring_capacity] makes a tracer keeping the last
    [ring_capacity] events; it is disabled when [ring_capacity <= 0]. *)
val create : ring_capacity:int -> t

(** A shared always-disabled tracer; instrumented code defaults to it. *)
val null : t

(** Cheap test used by instrumentation sites before building an event. *)
val enabled : t -> bool

(** [emit t e] buffers [e] in the ring. *)
val emit : t -> event -> unit

(** Events emitted since the last {!clear} (including ones the ring has
    already overwritten). *)
val total : t -> int

(** Buffered events, oldest first. *)
val ring_events : t -> event list

(** Empty the ring and reset the {!total} counter. *)
val clear : t -> unit

val kind_to_string : kind -> string
val kind_of_string : string -> kind option
val pp_event : Format.formatter -> event -> unit
val event_to_json : event -> Jsonx.t
val event_of_json : Jsonx.t -> event option

(** [write_ndjson oc t] writes the buffered events to [oc], oldest first,
    one JSON object per line, and flushes [oc]. *)
val write_ndjson : out_channel -> t -> unit
