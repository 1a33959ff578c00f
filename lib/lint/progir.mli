(** The straight-line concurrent-program IR shared by the fuzzer
    (lib/fuzz, which generates, executes and shrinks it) and the static
    analyzer (lib/lint, which reasons about it without running it).

    A program is a fixed fork-join shape: main spawns threads
    [1 .. n-1], runs its own body [p_threads.(0)], then joins them all.
    Bodies are straight-line — no control flow — so the set of accesses
    each thread performs is exact, which is what makes the static
    verdicts of {!Lint} sound rather than heuristic.

    {!Fuzz} re-exports every type here with type equations; existing
    code pattern-matching [Fuzz.Load] etc. is unaffected by the
    hoist. *)

type profile =
  | Mixed  (** every op kind, relaxed-leaning memory orders *)
  | Sc_heavy  (** bias memory orders towards [Seq_cst] *)
  | Rmw_chain  (** bias towards RMWs contending on one location *)
  | Mixed_atomicity
      (** include memory-reuse accesses: raw non-atomic loads/stores to
          atomic locations (Section 7.2 of the paper) *)

val profile_name : profile -> string
val profile_of_string : string -> profile option
val all_profiles : profile list

(** One operation of a thread body.  [loc] indexes the program's atomic
    locations, [na] its plain locations, [m] its mutexes. *)
type op =
  | Load of { loc : int; mo : Memorder.t }
  | Store of { loc : int; mo : Memorder.t; value : int }
  | Add of { loc : int; mo : Memorder.t; delta : int }
  | Cas of { loc : int; mo : Memorder.t; expected : int; desired : int }
  | Xchg of { loc : int; mo : Memorder.t; value : int }
  | Fence of Memorder.t
  | Na_read of { na : int }
  | Na_write of { na : int; value : int }
  | Reuse_load of { loc : int }  (** raw non-atomic load of an atomic *)
  | Reuse_store of { loc : int; value : int }
  | Lock of { m : int }
  | Unlock of { m : int }
  | Yield

(** A program.  [p_threads.(0)] is the main thread's own body; main
    first spawns threads [1 .. n-1], then runs its body, then joins
    them all. *)
type program = {
  p_seed : int64;
  p_profile : profile;
  p_atomic_locs : int;
  p_na_locs : int;
  p_mutexes : int;
  p_threads : op array array;
}

(** The names a program's atomic and non-atomic location [i] run under
    (["a<i>"], ["n<i>"]): in race reports, lint verdicts and printed
    programs.  A table for the indices generated programs use, formatted
    past it. *)
val atomic_name : int -> string

val na_name : int -> string

(** Total ops across all thread bodies. *)
val op_count : program -> int

(** Upper bounds on a program's counts: thread bodies (main included),
    ops per body, atomic locations, plain locations and mutexes.  They
    sit far above what the fuzzer's generator and corpus mutation
    produce. *)

val max_threads : int
val max_ops : int
val max_atomic_locs : int
val max_na_locs : int
val max_mutexes : int

(** Structural well-formedness: counts non-negative and within the bounds
    above, location/mutex indices in range, lock discipline respected on
    every thread (balanced, properly nested, ordered). *)
val validate : program -> (unit, string) result

(** {1 Op-unit editing machinery}

    The shrinker's (and corpus mutator's) shared notion of an editable
    unit: a single op, or a lock and its matching unlock (removing either
    alone would break the discipline {!validate} checks). *)

(** Map from each [Lock] index to its matching [Unlock] index and back,
    for one thread body. *)
val lock_pairs : op array -> (int, int) Hashtbl.t

(** Deletion units of one thread body as index lists (op [i] alone, or a
    lock/unlock pair), ascending by first index. *)
val units_of : op array -> int list list

(** [remove_indices ops idxs] drops the ops at [idxs], preserving
    order. *)
val remove_indices : op array -> int list -> op array

(** Replace thread [t]'s body. *)
val with_thread : program -> int -> op array -> program

(** Delete thread [t] ([t = 0] empties the main body instead — the
    fork-join shape always keeps a main thread). *)
val without_thread : program -> int -> program

(** {1 Serialization}

    The corpus-entry persistence format: a program as one JSON object.
    [program_of_json] validates structurally and via {!validate}; any
    unknown tag, missing field or discipline violation is an [Error] —
    corrupt corpus files surface as errors, never crashes. *)

val program_to_json : program -> Jsonx.t
val program_of_json : Jsonx.t -> (program, string) result
