(** Litmus tests: small fixed-shape programs whose sets of allowed outcomes
    characterise a memory model (Section 2.1 of the paper uses message
    passing as the running example).

    Each test returns a tuple of register values packed into a list; the
    [allowed] predicate says whether an outcome is permitted by C11Tester's
    memory-model fragment, and [weak] marks the "interesting" relaxed
    outcome the test exists to probe.  Tests with [weak_allowed = false]
    must never exhibit the weak outcome; tests with [weak_allowed = true]
    should exhibit it given enough executions. *)

type outcome = int list

type t = {
  name : string;
  description : string;
  registers : string list;  (** names for pretty-printing outcomes *)
  run_once : unit -> outcome;  (** the DSL program *)
  allowed : outcome -> bool;
      (** permitted under the paper's fragment (change 2 forbids
          load-buffering/OOTA outcomes even though plain C++11 allows
          them) *)
  weak : outcome -> bool;  (** the probed relaxed outcome *)
  weak_allowed : bool;
}

val find : string -> t option
val catalog : t list

(** Sort a first-occurrence-order histogram (as {!Tester.run_collect}
    or a merged shard list produces) into {!explore}'s presentation
    order: frequency-descending, ties keeping first-occurrence order.
    Used by callers that merge shards themselves (the multi-process
    fabric) so every path prints the same exploration. *)
val rank_hist : (outcome * int) list -> (outcome * int) list

(** [explore ~config ~iters t] runs the litmus test and returns its outcome
    histogram sorted by frequency (highest first; ties in first-occurrence
    order).  [jobs] shards the executions across domains — the histogram
    is bit-identical for every job count (see {!Tester}). *)
val explore :
  ?jobs:int -> config:Engine.config -> iters:int -> t -> (outcome * int) list

(** {!explore} plus the campaign summary — needed by callers that care
    about races, assertion failures or certification verdicts across the
    exploration (e.g. [c11test litmus --certify]). *)
val explore_summary :
  ?jobs:int ->
  config:Engine.config ->
  iters:int ->
  t ->
  Tester.summary * (outcome * int) list

(** [violations ~config ~iters t] is the sub-histogram of outcomes not
    allowed by the fragment (must be empty for a correct model). *)
val violations :
  ?jobs:int -> config:Engine.config -> iters:int -> t -> (outcome * int) list

val weak_observed : (outcome * int) list -> t -> bool

val pp_outcome : t -> Format.formatter -> outcome -> unit
