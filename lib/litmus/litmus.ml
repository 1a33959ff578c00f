type outcome = int list

type t = {
  name : string;
  description : string;
  registers : string list;
  run_once : unit -> outcome;
  allowed : outcome -> bool;
  weak : outcome -> bool;
  weak_allowed : bool;
}

open Memorder

let rlx = Relaxed

let spawn2 a b =
  let ta = C11.Thread.spawn a in
  let tb = C11.Thread.spawn b in
  C11.Thread.join ta;
  C11.Thread.join tb

let spawn3 a b c =
  let ta = C11.Thread.spawn a in
  let tb = C11.Thread.spawn b in
  let tc = C11.Thread.spawn c in
  C11.Thread.join ta;
  C11.Thread.join tb;
  C11.Thread.join tc

let spawn4 a b c d =
  let ta = C11.Thread.spawn a in
  let tb = C11.Thread.spawn b in
  let tc = C11.Thread.spawn c in
  let td = C11.Thread.spawn d in
  C11.Thread.join ta;
  C11.Thread.join tb;
  C11.Thread.join tc;
  C11.Thread.join td

(* --------------------------------------------------------------- *)
(* Message passing (Figure 2 of the paper)                          *)

let mp ~store_mo ~load_mo () =
  let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
  let r1 = ref 0 and r2 = ref 0 in
  spawn2
    (fun () ->
      C11.Atomic.store ~mo:rlx x 1;
      C11.Atomic.store ~mo:store_mo y 1)
    (fun () ->
      r1 := C11.Atomic.load ~mo:load_mo y;
      r2 := C11.Atomic.load ~mo:rlx x);
  [ !r1; !r2 ]

let mp_relaxed =
  {
    name = "mp_relaxed";
    description =
      "message passing, all relaxed: the counter-intuitive r1=1,r2=0 is \
       allowed (Figure 2)";
    registers = [ "r1"; "r2" ];
    run_once = mp ~store_mo:rlx ~load_mo:rlx;
    allowed = (fun _ -> true);
    weak = (fun o -> o = [ 1; 0 ]);
    weak_allowed = true;
  }

let mp_rel_acq =
  {
    name = "mp_rel_acq";
    description =
      "message passing with release store / acquire load: r1=1 forces r2=1";
    registers = [ "r1"; "r2" ];
    run_once = mp ~store_mo:Release ~load_mo:Acquire;
    allowed = (fun o -> o <> [ 1; 0 ]);
    weak = (fun o -> o = [ 1; 0 ]);
    weak_allowed = false;
  }

let mp_fences =
  {
    name = "mp_fences";
    description =
      "message passing via release fence + relaxed store and relaxed load \
       + acquire fence";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:rlx x 1;
            C11.Fence.release ();
            C11.Atomic.store ~mo:rlx y 1)
          (fun () ->
            r1 := C11.Atomic.load ~mo:rlx y;
            C11.Fence.acquire ();
            r2 := C11.Atomic.load ~mo:rlx x);
        [ !r1; !r2 ]);
    allowed = (fun o -> o <> [ 1; 0 ]);
    weak = (fun o -> o = [ 1; 0 ]);
    weak_allowed = false;
  }

(* --------------------------------------------------------------- *)
(* Store buffering                                                  *)

let sb ~mo ?(fence = None) () =
  let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
  let r1 = ref 0 and r2 = ref 0 in
  let maybe_fence () = match fence with Some f -> C11.Fence.fence f | None -> () in
  spawn2
    (fun () ->
      C11.Atomic.store ~mo x 1;
      maybe_fence ();
      r1 := C11.Atomic.load ~mo y)
    (fun () ->
      C11.Atomic.store ~mo y 1;
      maybe_fence ();
      r2 := C11.Atomic.load ~mo x);
  [ !r1; !r2 ]

let sb_relaxed =
  {
    name = "sb_relaxed";
    description = "store buffering, relaxed: r1=r2=0 allowed";
    registers = [ "r1"; "r2" ];
    run_once = sb ~mo:rlx;
    allowed = (fun _ -> true);
    weak = (fun o -> o = [ 0; 0 ]);
    weak_allowed = true;
  }

let sb_rel_acq =
  {
    name = "sb_rel_acq";
    description =
      "store buffering with release/acquire only: r1=r2=0 is still allowed \
       (rel/acq does not forbid SB)";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:Release x 1;
            r1 := C11.Atomic.load ~mo:Acquire y)
          (fun () ->
            C11.Atomic.store ~mo:Release y 1;
            r2 := C11.Atomic.load ~mo:Acquire x);
        [ !r1; !r2 ]);
    allowed = (fun _ -> true);
    weak = (fun o -> o = [ 0; 0 ]);
    weak_allowed = true;
  }

let sb_sc =
  {
    name = "sb_sc";
    description = "store buffering, seq_cst: r1=r2=0 forbidden";
    registers = [ "r1"; "r2" ];
    run_once = sb ~mo:Seq_cst;
    allowed = (fun o -> o <> [ 0; 0 ]);
    weak = (fun o -> o = [ 0; 0 ]);
    weak_allowed = false;
  }

let sb_sc_fences =
  {
    name = "sb_sc_fences";
    description =
      "store buffering, relaxed accesses separated by seq_cst fences: \
       r1=r2=0 forbidden";
    registers = [ "r1"; "r2" ];
    run_once = sb ~mo:rlx ~fence:(Some Seq_cst);
    allowed = (fun o -> o <> [ 0; 0 ]);
    weak = (fun o -> o = [ 0; 0 ]);
    weak_allowed = false;
  }

(* --------------------------------------------------------------- *)
(* Load buffering / out-of-thin-air                                  *)

let lb_relaxed =
  {
    name = "lb_relaxed";
    description =
      "load buffering, relaxed: r1=r2=1 is allowed by plain C++11 but \
       forbidden by the fragment's hb∪sc∪rf acyclicity (Section 2.2, \
       change 2)";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 in
        spawn2
          (fun () ->
            r1 := C11.Atomic.load ~mo:rlx x;
            C11.Atomic.store ~mo:rlx y 1)
          (fun () ->
            r2 := C11.Atomic.load ~mo:rlx y;
            C11.Atomic.store ~mo:rlx x 1);
        [ !r1; !r2 ]);
    allowed = (fun o -> o <> [ 1; 1 ]);
    weak = (fun o -> o = [ 1; 1 ]);
    weak_allowed = false;
  }

(* --------------------------------------------------------------- *)
(* Coherence                                                        *)

let coww_cowr =
  {
    name = "coww_cowr";
    description =
      "same-thread coherence: after x=1; x=2 the writing thread reads 2, \
       and a reader that saw 2 never then sees 1";
    registers = [ "r_self"; "ra"; "rb" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 in
        let r_self = ref 0 and ra = ref 0 and rb = ref 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:rlx x 1;
            C11.Atomic.store ~mo:rlx x 2;
            r_self := C11.Atomic.load ~mo:rlx x)
          (fun () ->
            ra := C11.Atomic.load ~mo:rlx x;
            rb := C11.Atomic.load ~mo:rlx x);
        [ !r_self; !ra; !rb ]);
    allowed =
      (fun o ->
        match o with
        | [ r_self; ra; rb ] ->
          r_self = 2
          && (not (ra = 2 && rb = 1))
          && not (ra > 0 && rb = 0)
        | _ -> false);
    weak = (fun _ -> false);
    weak_allowed = false;
  }

let corr =
  {
    name = "corr";
    description =
      "read-read coherence: two readers of x must not observe the two \
       writes in contradictory orders";
    registers = [ "ra1"; "ra2"; "rb1"; "rb2" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 in
        let ra1 = ref 0 and ra2 = ref 0 and rb1 = ref 0 and rb2 = ref 0 in
        spawn4
          (fun () -> C11.Atomic.store ~mo:rlx x 1)
          (fun () -> C11.Atomic.store ~mo:rlx x 2)
          (fun () ->
            ra1 := C11.Atomic.load ~mo:rlx x;
            ra2 := C11.Atomic.load ~mo:rlx x)
          (fun () ->
            rb1 := C11.Atomic.load ~mo:rlx x;
            rb2 := C11.Atomic.load ~mo:rlx x);
        [ !ra1; !ra2; !rb1; !rb2 ]);
    allowed =
      (fun o ->
        match o with
        | [ ra1; ra2; rb1; rb2 ] ->
          (* The two readers must agree on the order of writes 1 and 2
             whenever both observed both. *)
          not (ra1 = 1 && ra2 = 2 && rb1 = 2 && rb2 = 1)
          && not (ra1 = 2 && ra2 = 1 && rb1 = 1 && rb2 = 2)
          (* And each reader is individually coherent: cannot go back to
             the initial value. *)
          && (not (ra1 > 0 && ra2 = 0))
          && not (rb1 > 0 && rb2 = 0)
        | _ -> false);
    weak = (fun _ -> false);
    weak_allowed = false;
  }

(* --------------------------------------------------------------- *)
(* 2+2W: the modification-order litmus that separates C11Tester's
   fragment from tsan11's                                            *)

let w2p2_relaxed =
  {
    name = "2+2w_relaxed";
    description =
      "2+2W, relaxed: the x=1,y=1 outcome needs a modification order that \
       inverts execution order on one location — allowed by the fragment, \
       impossible when hb∪sc∪rf∪mo must be acyclic (tsan11/tsan11rec)";
    registers = [ "x"; "y" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:rlx x 1;
            C11.Atomic.store ~mo:rlx y 2)
          (fun () ->
            C11.Atomic.store ~mo:rlx y 1;
            C11.Atomic.store ~mo:rlx x 2);
        [ C11.Atomic.load x; C11.Atomic.load y ]);
    allowed =
      (fun o -> match o with [ x; y ] -> x >= 1 && y >= 1 | _ -> false);
    weak = (fun o -> o = [ 1; 1 ]);
    weak_allowed = true;
  }

(* --------------------------------------------------------------- *)
(* IRIW                                                             *)

let iriw ~mo () =
  let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
  let r1 = ref 0 and r2 = ref 0 and r3 = ref 0 and r4 = ref 0 in
  spawn4
    (fun () -> C11.Atomic.store ~mo x 1)
    (fun () -> C11.Atomic.store ~mo y 1)
    (fun () ->
      r1 := C11.Atomic.load ~mo x;
      r2 := C11.Atomic.load ~mo y)
    (fun () ->
      r3 := C11.Atomic.load ~mo y;
      r4 := C11.Atomic.load ~mo x);
  [ !r1; !r2; !r3; !r4 ]

let iriw_weak o = o = [ 1; 0; 1; 0 ]

let iriw_sc =
  {
    name = "iriw_sc";
    description =
      "independent reads of independent writes, seq_cst: the readers must \
       agree on the write order";
    registers = [ "r1"; "r2"; "r3"; "r4" ];
    run_once = iriw ~mo:Seq_cst;
    allowed = (fun o -> not (iriw_weak o));
    weak = iriw_weak;
    weak_allowed = false;
  }

let iriw_acq =
  {
    name = "iriw_rel_acq";
    description =
      "IRIW with release/acquire: the readers may disagree on the write \
       order";
    registers = [ "r1"; "r2"; "r3"; "r4" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 and r3 = ref 0 and r4 = ref 0 in
        spawn4
          (fun () -> C11.Atomic.store ~mo:Release x 1)
          (fun () -> C11.Atomic.store ~mo:Release y 1)
          (fun () ->
            r1 := C11.Atomic.load ~mo:Acquire x;
            r2 := C11.Atomic.load ~mo:Acquire y)
          (fun () ->
            r3 := C11.Atomic.load ~mo:Acquire y;
            r4 := C11.Atomic.load ~mo:Acquire x);
        [ !r1; !r2; !r3; !r4 ]);
    allowed = (fun _ -> true);
    weak = iriw_weak;
    weak_allowed = true;
  }

(* --------------------------------------------------------------- *)
(* Release sequences (C++20 definition — Section 2.2, change 1)      *)

let release_sequence_rmw =
  {
    name = "release_sequence_rmw";
    description =
      "an RMW continues a release sequence: an acquire load reading the \
       RMW synchronises with the release store that heads the sequence";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let d = C11.Atomic.make 0 and x = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref (-1) in
        spawn3
          (fun () ->
            C11.Atomic.store ~mo:rlx d 5;
            C11.Atomic.store ~mo:Release x 1)
          (fun () -> ignore (C11.Atomic.fetch_add ~mo:rlx x 10))
          (fun () ->
            r1 := C11.Atomic.load ~mo:Acquire x;
            if !r1 = 11 then r2 := C11.Atomic.load ~mo:rlx d);
        [ !r1; !r2 ]);
    allowed =
      (fun o ->
        match o with [ r1; r2 ] -> not (r1 = 11 && r2 = 0) | _ -> false);
    weak = (fun o -> match o with [ r1; r2 ] -> r1 = 11 && r2 = 0 | _ -> false);
    weak_allowed = false;
  }

let release_sequence_c20 =
  {
    name = "release_sequence_c20";
    description =
      "C++20 weakening: a later relaxed store by the same thread does NOT \
       continue the release sequence, so reading it gives no \
       synchronisation (r1=2,r2=0 allowed)";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let d = C11.Atomic.make 0 and x = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref (-1) in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:rlx d 5;
            C11.Atomic.store ~mo:Release x 1;
            C11.Atomic.store ~mo:rlx x 2)
          (fun () ->
            r1 := C11.Atomic.load ~mo:Acquire x;
            if !r1 = 2 then r2 := C11.Atomic.load ~mo:rlx d);
        [ !r1; !r2 ]);
    allowed = (fun _ -> true);
    weak = (fun o -> match o with [ r1; r2 ] -> r1 = 2 && r2 = 0 | _ -> false);
    weak_allowed = true;
  }

(* --------------------------------------------------------------- *)
(* Write-to-read causality                                           *)

let wrc_rel_acq =
  {
    name = "wrc_rel_acq";
    description =
      "write-to-read causality with release/acquire: synchronisation is \
       transitive through the middle thread";
    registers = [ "r1"; "r2"; "r3" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 and r3 = ref 0 in
        spawn3
          (fun () -> C11.Atomic.store ~mo:Release x 1)
          (fun () ->
            r1 := C11.Atomic.load ~mo:Acquire x;
            if !r1 = 1 then C11.Atomic.store ~mo:Release y 1)
          (fun () ->
            r2 := C11.Atomic.load ~mo:Acquire y;
            r3 := C11.Atomic.load ~mo:rlx x);
        [ !r1; !r2; !r3 ]);
    allowed =
      (fun o ->
        match o with [ _; r2; r3 ] -> not (r2 = 1 && r3 = 0) | _ -> false);
    weak =
      (fun o -> match o with [ _; r2; r3 ] -> r2 = 1 && r3 = 0 | _ -> false);
    weak_allowed = false;
  }

(* --------------------------------------------------------------- *)
(* RMW atomicity                                                     *)

let rmw_atomicity =
  {
    name = "rmw_atomicity";
    description =
      "two concurrent fetch_adds never read the same store: the final \
       value is exact and the values read are distinct";
    registers = [ "final"; "old_a"; "old_b" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 in
        let old_a = ref 0 and old_b = ref 0 in
        spawn2
          (fun () -> old_a := C11.Atomic.fetch_add ~mo:rlx x 1)
          (fun () -> old_b := C11.Atomic.fetch_add ~mo:rlx x 1);
        [ C11.Atomic.load x; !old_a; !old_b ]);
    allowed =
      (fun o ->
        match o with
        | [ final; old_a; old_b ] ->
          final = 2 && (old_a = 0 || old_b = 0) && old_a + old_b = 1
        | _ -> false);
    weak = (fun _ -> false);
    weak_allowed = false;
  }

let cas_exactly_one =
  {
    name = "cas_exactly_one";
    description = "of two competing compare-exchanges, exactly one succeeds";
    registers = [ "wins" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 in
        let wa = ref 0 and wb = ref 0 in
        spawn2
          (fun () ->
            if C11.Atomic.compare_exchange ~mo:Acq_rel x ~expected:0 ~desired:1
            then wa := 1)
          (fun () ->
            if C11.Atomic.compare_exchange ~mo:Acq_rel x ~expected:0 ~desired:2
            then wb := 1);
        [ !wa + !wb ]);
    allowed = (fun o -> o = [ 1 ]);
    weak = (fun _ -> false);
    weak_allowed = false;
  }

(* --------------------------------------------------------------- *)
(* Classic shapes: R, S, ISA2, WWC, Z6 and friends                   *)

let r_shape =
  {
    name = "r_sc";
    description =
      "R: writer/writer+reader with seq_cst accesses — mo and sc must \
       agree, forbidding x=2 with r1=0";
    registers = [ "x_final"; "r1" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:Seq_cst x 1;
            C11.Atomic.store ~mo:Seq_cst y 1)
          (fun () ->
            C11.Atomic.store ~mo:Seq_cst y 2;
            r1 := C11.Atomic.load ~mo:Seq_cst x);
        [ C11.Atomic.load ~mo:Seq_cst y; !r1 ]);
    allowed =
      (fun o ->
        match o with
        (* if y's final value is 2 (t1's store is mo-last, so t1's store
           came after t0's in sc), then t1's later sc load must see x=1 *)
        | [ y_final; r1 ] -> not (y_final = 2 && r1 = 0)
        | _ -> false);
    weak = (fun o -> match o with [ y; r1 ] -> y = 2 && r1 = 0 | _ -> false);
    weak_allowed = false;
  }

let s_shape_relaxed =
  {
    name = "s_rel_acq";
    description =
      "S: the release/acquire edge makes x=2 happen before x=1, so \
       write-write coherence pins x=2 before x=1 in mo and the final \
       value cannot be 2";
    registers = [ "r1"; "x_final" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:rlx x 2;
            C11.Atomic.store ~mo:Release y 1)
          (fun () ->
            r1 := C11.Atomic.load ~mo:Acquire y;
            if !r1 = 1 then C11.Atomic.store ~mo:rlx x 1);
        [ !r1; C11.Atomic.load x ]);
    allowed =
      (fun o -> match o with [ r1; x ] -> not (r1 = 1 && x = 2) | _ -> false);
    weak = (fun o -> match o with [ r1; x ] -> r1 = 1 && x = 2 | _ -> false);
    weak_allowed = false;
  }

let isa2 =
  {
    name = "isa2_rel_acq";
    description =
      "ISA2: release/acquire synchronisation is transitive through a \
       second location";
    registers = [ "r1"; "r2"; "r3" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0
        and y = C11.Atomic.make 0
        and z = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 and r3 = ref 0 in
        spawn3
          (fun () ->
            C11.Atomic.store ~mo:rlx x 1;
            C11.Atomic.store ~mo:Release y 1)
          (fun () ->
            r1 := C11.Atomic.load ~mo:Acquire y;
            if !r1 = 1 then C11.Atomic.store ~mo:Release z 1)
          (fun () ->
            r2 := C11.Atomic.load ~mo:Acquire z;
            r3 := C11.Atomic.load ~mo:rlx x);
        [ !r1; !r2; !r3 ]);
    allowed =
      (fun o ->
        match o with [ _; r2; r3 ] -> not (r2 = 1 && r3 = 0) | _ -> false);
    weak =
      (fun o -> match o with [ _; r2; r3 ] -> r2 = 1 && r3 = 0 | _ -> false);
    weak_allowed = false;
  }

let wwc_relaxed =
  {
    name = "wwc_relaxed";
    description =
      "WWC: a write-write causality chain with relaxed accesses leaves the \
       final mo unconstrained (weak outcome allowed)";
    registers = [ "r1"; "r2"; "x_final" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 in
        spawn3
          (fun () -> C11.Atomic.store ~mo:rlx x 2)
          (fun () ->
            r1 := C11.Atomic.load ~mo:rlx x;
            if !r1 = 2 then C11.Atomic.store ~mo:rlx y 1)
          (fun () ->
            r2 := C11.Atomic.load ~mo:rlx y;
            if !r2 = 1 then C11.Atomic.store ~mo:rlx x 1);
        [ !r1; !r2; C11.Atomic.load x ]);
    allowed = (fun _ -> true);
    weak =
      (fun o ->
        match o with [ r1; r2; x ] -> r1 = 2 && r2 = 1 && x = 2 | _ -> false);
    weak_allowed = true;
  }

let mp_seq_cst =
  {
    name = "mp_seq_cst";
    description = "message passing with seq_cst accesses: fully ordered";
    registers = [ "r1"; "r2" ];
    run_once = mp ~store_mo:Seq_cst ~load_mo:Seq_cst;
    allowed = (fun o -> o <> [ 1; 0 ]);
    weak = (fun o -> o = [ 1; 0 ]);
    weak_allowed = false;
  }

let mp_acquire_only =
  {
    name = "mp_acquire_only";
    description =
      "message passing with only an acquire load (relaxed store): no \
       synchronisation, the weak outcome remains";
    registers = [ "r1"; "r2" ];
    run_once = mp ~store_mo:rlx ~load_mo:Acquire;
    allowed = (fun _ -> true);
    weak = (fun o -> o = [ 1; 0 ]);
    weak_allowed = true;
  }

let mp_release_only =
  {
    name = "mp_release_only";
    description =
      "message passing with only a release store (relaxed load): no \
       synchronisation, the weak outcome remains";
    registers = [ "r1"; "r2" ];
    run_once = mp ~store_mo:Release ~load_mo:rlx;
    allowed = (fun _ -> true);
    weak = (fun o -> o = [ 1; 0 ]);
    weak_allowed = true;
  }

let iriw_sc_fences =
  {
    name = "iriw_sc_fences";
    description =
      "IRIW with relaxed accesses and seq_cst fences between the reads: \
       under the C++11 fence semantics the fragment implements (Batty et \
       al.), the readers may STILL disagree — C++20 strengthened sc \
       fences to forbid this";
    registers = [ "r1"; "r2"; "r3"; "r4" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 and r3 = ref 0 and r4 = ref 0 in
        spawn4
          (fun () -> C11.Atomic.store ~mo:rlx x 1)
          (fun () -> C11.Atomic.store ~mo:rlx y 1)
          (fun () ->
            r1 := C11.Atomic.load ~mo:rlx x;
            C11.Fence.seq_cst ();
            r2 := C11.Atomic.load ~mo:rlx y)
          (fun () ->
            r3 := C11.Atomic.load ~mo:rlx y;
            C11.Fence.seq_cst ();
            r4 := C11.Atomic.load ~mo:rlx x);
        [ !r1; !r2; !r3; !r4 ]);
    allowed = (fun _ -> true);
    weak = iriw_weak;
    weak_allowed = true;
  }

let corw =
  {
    name = "corw";
    description =
      "read-write coherence: a thread that read x=1 and then stores x=2 \
       forces 1 before 2 in mo, so nobody sees them inverted";
    registers = [ "r_reader"; "ra"; "rb" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 in
        let r_reader = ref 0 and ra = ref 0 and rb = ref 0 in
        spawn3
          (fun () -> C11.Atomic.store ~mo:rlx x 1)
          (fun () ->
            r_reader := C11.Atomic.load ~mo:rlx x;
            if !r_reader = 1 then C11.Atomic.store ~mo:rlx x 2)
          (fun () ->
            ra := C11.Atomic.load ~mo:rlx x;
            rb := C11.Atomic.load ~mo:rlx x);
        [ !r_reader; !ra; !rb ]);
    allowed =
      (fun o ->
        match o with
        | [ r_reader; ra; rb ] ->
          (* if the middle thread promoted 1 -> 2, observers never see 2
             then 1, and never regress to the initial value *)
          (not (r_reader = 1 && ra = 2 && rb = 1))
          && not (ra > 0 && rb = 0)
        | _ -> false);
    weak = (fun _ -> false);
    weak_allowed = false;
  }

let fence_mixed_one_sided =
  {
    name = "fence_one_sided";
    description =
      "a release fence on the writer side alone (relaxed reader, no \
       acquire fence) does not synchronise: the weak MP outcome remains";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:rlx x 1;
            C11.Fence.release ();
            C11.Atomic.store ~mo:rlx y 1)
          (fun () ->
            r1 := C11.Atomic.load ~mo:rlx y;
            r2 := C11.Atomic.load ~mo:rlx x);
        [ !r1; !r2 ]);
    allowed = (fun _ -> true);
    weak = (fun o -> o = [ 1; 0 ]);
    weak_allowed = true;
  }

let rmw_chain_release_seq =
  {
    name = "rmw_chain_release_seq";
    description =
      "a chain of two relaxed RMWs keeps the release sequence alive: an \
       acquire load of the chain's tail synchronises with the head";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let d = C11.Atomic.make 0 and x = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref (-1) in
        spawn4
          (fun () ->
            C11.Atomic.store ~mo:rlx d 5;
            C11.Atomic.store ~mo:Release x 1)
          (fun () -> ignore (C11.Atomic.fetch_add ~mo:rlx x 10))
          (fun () -> ignore (C11.Atomic.fetch_add ~mo:rlx x 100))
          (fun () ->
            r1 := C11.Atomic.load ~mo:Acquire x;
            if !r1 = 111 then r2 := C11.Atomic.load ~mo:rlx d);
        [ !r1; !r2 ]);
    allowed =
      (fun o ->
        match o with [ r1; r2 ] -> not (r1 = 111 && r2 = 0) | _ -> false);
    weak =
      (fun o -> match o with [ r1; r2 ] -> r1 = 111 && r2 = 0 | _ -> false);
    weak_allowed = false;
  }

let sb_one_fence =
  {
    name = "sb_one_fence";
    description =
      "store buffering with a seq_cst fence on only one side: the weak \
       outcome survives";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let x = C11.Atomic.make 0 and y = C11.Atomic.make 0 in
        let r1 = ref 0 and r2 = ref 0 in
        spawn2
          (fun () ->
            C11.Atomic.store ~mo:rlx x 1;
            C11.Fence.seq_cst ();
            r1 := C11.Atomic.load ~mo:rlx y)
          (fun () ->
            C11.Atomic.store ~mo:rlx y 1;
            r2 := C11.Atomic.load ~mo:rlx x);
        [ !r1; !r2 ]);
    allowed = (fun _ -> true);
    weak = (fun o -> o = [ 0; 0 ]);
    weak_allowed = true;
  }

let exchange_visibility =
  {
    name = "exchange_visibility";
    description =
      "an acq_rel exchange both publishes the writer's history and \
       acquires the previous store's: full two-way synchronisation";
    registers = [ "r1"; "r2" ];
    run_once =
      (fun () ->
        let d1 = C11.Atomic.make 0
        and d2 = C11.Atomic.make 0
        and x = C11.Atomic.make 0 in
        let r1 = ref (-1) and r2 = ref (-1) in
        spawn3
          (fun () ->
            C11.Atomic.store ~mo:rlx d1 7;
            C11.Atomic.store ~mo:Release x 1)
          (fun () ->
            C11.Atomic.store ~mo:rlx d2 8;
            let prev = C11.Atomic.exchange ~mo:Acq_rel x 2 in
            (* if we took over from the release store, its payload is
               visible to us *)
            if prev = 1 then r1 := C11.Atomic.load ~mo:rlx d1)
          (fun () ->
            let v = C11.Atomic.load ~mo:Acquire x in
            if v = 2 then r2 := C11.Atomic.load ~mo:rlx d2);
        [ !r1; !r2 ]);
    allowed =
      (fun o ->
        match o with [ r1; r2 ] -> r1 <> 0 && r2 <> 0 | _ -> false);
    weak = (fun _ -> false);
    weak_allowed = false;
  }

let catalog =
  [
    mp_relaxed;
    mp_rel_acq;
    mp_fences;
    sb_relaxed;
    sb_rel_acq;
    sb_sc;
    sb_sc_fences;
    lb_relaxed;
    coww_cowr;
    corr;
    w2p2_relaxed;
    iriw_sc;
    iriw_acq;
    release_sequence_rmw;
    release_sequence_c20;
    wrc_rel_acq;
    rmw_atomicity;
    cas_exactly_one;
    r_shape;
    s_shape_relaxed;
    isa2;
    wwc_relaxed;
    mp_seq_cst;
    mp_acquire_only;
    mp_release_only;
    iriw_sc_fences;
    corw;
    fence_mixed_one_sided;
    rmw_chain_release_seq;
    sb_one_fence;
    exchange_visibility;
  ]

let find name = List.find_opt (fun t -> t.name = name) catalog

(* frequency-descending; List.sort is stable, so ties keep the
   histogram's first-occurrence order, which is itself independent of
   [jobs] — the printed exploration is too *)
let rank_hist hist = List.sort (fun (_, a) (_, b) -> compare b a) hist

let explore_summary ?jobs ~config ~iters t =
  let summary, hist = Tester.run_collect ?jobs ~config ~iters t.run_once in
  (summary, rank_hist hist)

let explore ?jobs ~config ~iters t =
  snd (explore_summary ?jobs ~config ~iters t)

let violations ?jobs ~config ~iters t =
  List.filter (fun (o, _) -> not (t.allowed o)) (explore ?jobs ~config ~iters t)

let weak_observed hist t = List.exists (fun (o, _) -> t.weak o) hist

let pp_outcome t fmt o =
  let pairs = List.combine t.registers o in
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ", ")
       (fun fmt (n, v) -> Format.fprintf fmt "%s=%d" n v))
    pairs
