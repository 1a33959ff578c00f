(* C11sweep — see sweep.mli for the contract. *)

type cell = {
  cl_index : int;
  cl_id : string;
  cl_params : (string * string) list;
  cl_model : Progir.program;
  cl_run : unit -> unit;
}

type family = {
  fa_name : string;
  fa_desc : string;
  fa_row : string;
  fa_col : string;
  fa_cells : cell list;
}

(* ------------------------------------------------------------------ *)
(* Families *)

let mo_name = Memorder.to_string

let id_of params =
  String.concat "," (List.map (fun (k, v) -> k ^ "=" ^ v) params)

let model ~atomic_locs ~na_locs threads =
  {
    Progir.p_seed = 0L;
    p_profile = Progir.Mixed;
    p_atomic_locs = atomic_locs;
    p_na_locs = na_locs;
    p_mutexes = 0;
    (* main spawns the worker threads and has an empty body of its own *)
    p_threads = Array.of_list ([||] :: threads);
  }

let index_cells cells = List.mapi (fun i c -> { c with cl_index = i }) cells

(* --- seqlock ------------------------------------------------------- *)
(* Writer publishes two generations behind an odd/even sequence counter
   (relaxed counter bump, release fence, relaxed data stores, release
   counter store — the classic fence-based seqlock writer).  Reader
   speculates: first counter read at [first], relaxed data reads, an
   optional validation fence, second counter read at [second]; a
   validated pair with mismatched data is a torn read.  Data lives in
   relaxed atomics: the C11 seqlock's speculative reads are undefined on
   plain memory, and an all-racy matrix would show nothing. *)

let seqlock_run ~first ~second ~fence () =
  let open C11 in
  let seq = Atomic.make ~name:"seq" 0 in
  let key = Atomic.make ~name:"key" 0 in
  let value = Atomic.make ~name:"value" 0 in
  let writer () =
    for g = 1 to 2 do
      let c = Atomic.load ~mo:Memorder.Relaxed seq in
      Atomic.store ~mo:Memorder.Relaxed seq (c + 1);
      Fence.release ();
      Atomic.store ~mo:Memorder.Relaxed key g;
      Atomic.store ~mo:Memorder.Relaxed value g;
      Atomic.store ~mo:Memorder.Release seq (c + 2)
    done
  in
  let reader () =
    let tries = ref 0 in
    let stop = ref false in
    while (not !stop) && !tries < 3 do
      incr tries;
      let s1 = Atomic.load ~mo:first seq in
      if s1 land 1 = 0 then begin
        let k = Atomic.load ~mo:Memorder.Relaxed key in
        let v = Atomic.load ~mo:Memorder.Relaxed value in
        (match fence with None -> () | Some mo -> Fence.fence mo);
        let s2 = Atomic.load ~mo:second seq in
        if s1 = s2 then begin
          stop := true;
          assert_that (k = v) "torn read"
        end
      end
    done
  in
  let w = Thread.spawn writer in
  let r = Thread.spawn reader in
  Thread.join w;
  Thread.join r

let seqlock_model ~first ~second ~fence =
  let writer =
    [|
      Progir.Load { loc = 0; mo = Memorder.Relaxed };
      Progir.Store { loc = 0; mo = Memorder.Relaxed; value = 1 };
      Progir.Fence Memorder.Release;
      Progir.Store { loc = 1; mo = Memorder.Relaxed; value = 1 };
      Progir.Store { loc = 2; mo = Memorder.Relaxed; value = 1 };
      Progir.Store { loc = 0; mo = Memorder.Release; value = 2 };
    |]
  in
  let reader =
    Array.of_list
      ([
         Progir.Load { loc = 0; mo = first };
         Progir.Load { loc = 1; mo = Memorder.Relaxed };
         Progir.Load { loc = 2; mo = Memorder.Relaxed };
       ]
      @ (match fence with None -> [] | Some mo -> [ Progir.Fence mo ])
      @ [ Progir.Load { loc = 0; mo = second } ])
  in
  model ~atomic_locs:3 ~na_locs:0 [ writer; reader ]

let seqlock_family =
  let firsts = [ Memorder.Relaxed; Memorder.Acquire; Memorder.Seq_cst ] in
  let seconds = [ Memorder.Relaxed; Memorder.Acquire; Memorder.Seq_cst ] in
  let fences = [ None; Some Memorder.Acquire; Some Memorder.Seq_cst ] in
  let cells =
    List.concat_map
      (fun fence ->
        List.concat_map
          (fun first ->
            List.map
              (fun second ->
                let params =
                  [
                    ("first", mo_name first);
                    ("second", mo_name second);
                    ( "fence",
                      match fence with None -> "none" | Some mo -> mo_name mo
                    );
                  ]
                in
                {
                  cl_index = 0;
                  cl_id = id_of params;
                  cl_params = params;
                  cl_model = seqlock_model ~first ~second ~fence;
                  cl_run = seqlock_run ~first ~second ~fence;
                })
              seconds)
          firsts)
      fences
  in
  {
    fa_name = "seqlock";
    fa_desc =
      "seqlock reader validation: first/second counter-read orders x \
       validation fence";
    fa_row = "first";
    fa_col = "second";
    fa_cells = index_cells cells;
  }

(* --- rwlock -------------------------------------------------------- *)
(* Two writers contend on a CAS spinlock guarding plain data; the sweep
   varies the lock CAS order and the unlock store order.  A lock without
   acquire or an unlock without release leaves the two critical sections
   unsynchronised — the plain accesses race. *)

let rwlock_run ~lock_mo ~unlock_mo () =
  let open C11 in
  let lock = Atomic.make ~name:"wlock" 0 in
  let data = Nonatomic.make ~name:"data" 0 in
  let writer () =
    let got = ref false in
    let tries = ref 0 in
    while (not !got) && !tries < 4 do
      incr tries;
      if Atomic.compare_exchange ~mo:lock_mo lock ~expected:0 ~desired:1 then
        got := true
      else Thread.yield ()
    done;
    if !got then begin
      Nonatomic.write data (Nonatomic.read data + 1);
      Atomic.store ~mo:unlock_mo lock 0
    end
  in
  let a = Thread.spawn writer in
  let b = Thread.spawn writer in
  Thread.join a;
  Thread.join b

let rwlock_model ~lock_mo ~unlock_mo =
  let writer () =
    [|
      Progir.Cas { loc = 0; mo = lock_mo; expected = 0; desired = 1 };
      Progir.Na_read { na = 0 };
      Progir.Na_write { na = 0; value = 1 };
      Progir.Store { loc = 0; mo = unlock_mo; value = 0 };
    |]
  in
  model ~atomic_locs:1 ~na_locs:1 [ writer (); writer () ]

let rwlock_family =
  let locks = [ Memorder.Relaxed; Memorder.Acquire; Memorder.Seq_cst ] in
  let unlocks = [ Memorder.Relaxed; Memorder.Release; Memorder.Seq_cst ] in
  let cells =
    List.concat_map
      (fun lock_mo ->
        List.map
          (fun unlock_mo ->
            let params =
              [ ("wlock", mo_name lock_mo); ("wunlock", mo_name unlock_mo) ]
            in
            {
              cl_index = 0;
              cl_id = id_of params;
              cl_params = params;
              cl_model = rwlock_model ~lock_mo ~unlock_mo;
              cl_run = rwlock_run ~lock_mo ~unlock_mo;
            })
          unlocks)
      locks
  in
  {
    fa_name = "rwlock";
    fa_desc = "CAS write-lock discipline: lock CAS order x unlock store order";
    fa_row = "wlock";
    fa_col = "wunlock";
    fa_cells = index_cells cells;
  }

(* --- dekker -------------------------------------------------------- *)
(* Store-buffering mutual exclusion: each thread raises its flag, reads
   the other's, and enters the critical section (a plain write) only on
   zero.  Anything short of seq_cst on both sides lets both loads read
   zero — both enter, and the plain writes race. *)

let dekker_run ~store_mo ~load_mo () =
  let open C11 in
  let flag0 = Atomic.make ~name:"flag0" 0 in
  let flag1 = Atomic.make ~name:"flag1" 0 in
  let data = Nonatomic.make ~name:"crit" 0 in
  let side mine theirs v () =
    Atomic.store ~mo:store_mo mine 1;
    if Atomic.load ~mo:load_mo theirs = 0 then Nonatomic.write data v
  in
  let a = Thread.spawn (side flag0 flag1 1) in
  let b = Thread.spawn (side flag1 flag0 2) in
  Thread.join a;
  Thread.join b

let dekker_model ~store_mo ~load_mo =
  let side mine theirs =
    [|
      Progir.Store { loc = mine; mo = store_mo; value = 1 };
      Progir.Load { loc = theirs; mo = load_mo };
      Progir.Na_write { na = 0; value = 1 };
    |]
  in
  model ~atomic_locs:2 ~na_locs:1 [ side 0 1; side 1 0 ]

let dekker_family =
  let stores = [ Memorder.Relaxed; Memorder.Release; Memorder.Seq_cst ] in
  let loads = [ Memorder.Relaxed; Memorder.Acquire; Memorder.Seq_cst ] in
  let cells =
    List.concat_map
      (fun store_mo ->
        List.map
          (fun load_mo ->
            let params =
              [ ("store", mo_name store_mo); ("load", mo_name load_mo) ]
            in
            {
              cl_index = 0;
              cl_id = id_of params;
              cl_params = params;
              cl_model = dekker_model ~store_mo ~load_mo;
              cl_run = dekker_run ~store_mo ~load_mo;
            })
          loads)
      stores
  in
  {
    fa_name = "dekker";
    fa_desc =
      "store-buffering mutual exclusion: flag store order x flag load order";
    fa_row = "store";
    fa_col = "load";
    fa_cells = index_cells cells;
  }

(* --- ring-buffer --------------------------------------------------- *)
(* Single-producer single-consumer publication: the producer fills a
   plain slot and publishes by storing the head index; the consumer
   polls the head and reads the slot.  Publication below release or
   consumption below acquire leaves the slot accesses unsynchronised. *)

let ring_run ~pub_mo ~con_mo () =
  let open C11 in
  let slot = Nonatomic.make ~name:"slot" 0 in
  let head = Atomic.make ~name:"head" 0 in
  let producer () =
    Nonatomic.write slot 42;
    Atomic.store ~mo:pub_mo head 1
  in
  let consumer () =
    if Atomic.load ~mo:con_mo head = 1 then
      assert_that (Nonatomic.read slot = 42) "stale slot"
  in
  let p = Thread.spawn producer in
  let c = Thread.spawn consumer in
  Thread.join p;
  Thread.join c

let ring_model ~pub_mo ~con_mo =
  let producer =
    [|
      Progir.Na_write { na = 0; value = 42 };
      Progir.Store { loc = 0; mo = pub_mo; value = 1 };
    |]
  in
  let consumer =
    [| Progir.Load { loc = 0; mo = con_mo }; Progir.Na_read { na = 0 } |]
  in
  model ~atomic_locs:1 ~na_locs:1 [ producer; consumer ]

let ring_family =
  let pubs = [ Memorder.Relaxed; Memorder.Release; Memorder.Seq_cst ] in
  let cons = [ Memorder.Relaxed; Memorder.Acquire; Memorder.Seq_cst ] in
  let cells =
    List.concat_map
      (fun pub_mo ->
        List.map
          (fun con_mo ->
            let params = [ ("pub", mo_name pub_mo); ("con", mo_name con_mo) ] in
            {
              cl_index = 0;
              cl_id = id_of params;
              cl_params = params;
              cl_model = ring_model ~pub_mo ~con_mo;
              cl_run = ring_run ~pub_mo ~con_mo;
            })
          cons)
      pubs
  in
  {
    fa_name = "ring-buffer";
    fa_desc = "SPSC slot publication: head store order x head load order";
    fa_row = "pub";
    fa_col = "con";
    fa_cells = index_cells cells;
  }

let families = [ seqlock_family; rwlock_family; dekker_family; ring_family ]
let find name = List.find_opt (fun f -> f.fa_name = name) families

(* ------------------------------------------------------------------ *)
(* Running *)

type cell_stats = {
  st_execs : int;
  st_racy : int;
  st_torn : int;
  st_cert_rejected : int;
  st_deadlocks : int;
}

let zero_stats =
  {
    st_execs = 0;
    st_racy = 0;
    st_torn = 0;
    st_cert_rejected = 0;
    st_deadlocks = 0;
  }

let add_stats a b =
  {
    st_execs = a.st_execs + b.st_execs;
    st_racy = a.st_racy + b.st_racy;
    st_torn = a.st_torn + b.st_torn;
    st_cert_rejected = a.st_cert_rejected + b.st_cert_rejected;
    st_deadlocks = a.st_deadlocks + b.st_deadlocks;
  }

type verdict = V_cert_rejected | V_racy | V_torn | V_clean

let verdict_of_stats st =
  if st.st_cert_rejected > 0 then V_cert_rejected
  else if st.st_racy > 0 then V_racy
  else if st.st_torn > 0 then V_torn
  else V_clean

let verdict_name = function
  | V_cert_rejected -> "cert-rejected"
  | V_racy -> "racy"
  | V_torn -> "torn"
  | V_clean -> "clean"

let verdict_of_name = function
  | "cert-rejected" -> Some V_cert_rejected
  | "racy" -> Some V_racy
  | "torn" -> Some V_torn
  | "clean" -> Some V_clean
  | _ -> None

let verdict_letter = function
  | V_cert_rejected -> 'C'
  | V_racy -> 'R'
  | V_torn -> 'T'
  | V_clean -> '.'

let total ~family ~iters = List.length family.fa_cells * iters

type shard = { sw_family : string; sw_stats : cell_stats array }

let engine_config ~seed =
  { Engine.default_config with Engine.max_steps = 200_000; certify = true; seed }

let run_shard ?(progress = Progress.null) ~family ~iters ~seed ~start ~stride
    () =
  if iters < 0 then invalid_arg "Sweep.run_shard: iters must be >= 0";
  let cells = Array.of_list family.fa_cells in
  let ncells = Array.length cells in
  let stats = Array.make ncells zero_stats in
  let stop = ncells * iters in
  let progress_on = Progress.enabled progress in
  let t = ref start in
  while !t < stop do
    let c = !t mod ncells in
    let k = !t / ncells in
    let cell_seed = Rng.substream (Rng.substream seed ~index:c) ~index:k in
    let s =
      Tester.run ~config:(engine_config ~seed:cell_seed) ~iters:1
        cells.(c).cl_run
    in
    stats.(c) <-
      add_stats stats.(c)
        {
          st_execs = s.Tester.executions;
          st_racy = s.Tester.race_executions;
          st_torn = s.Tester.assert_executions;
          st_cert_rejected = s.Tester.cert_rejected_executions;
          st_deadlocks = s.Tester.deadlocks;
        };
    if progress_on then
      Progress.tick progress ~novel:false
        ~finding:(s.Tester.cert_rejected_executions > 0);
    t := !t + stride
  done;
  { sw_family = family.fa_name; sw_stats = stats }

(* ------------------------------------------------------------------ *)
(* Results *)

type cell_result = {
  cr_index : int;
  cr_id : string;
  cr_params : (string * string) list;
  cr_stats : cell_stats;
  cr_lint_rules : string list;
  cr_verdict : verdict;
}

type result = {
  rs_family : string;
  rs_row : string;
  rs_col : string;
  rs_iters : int;
  rs_seed : int64;
  rs_cells : cell_result list;
}

let merge ~family ~iters ~seed shards =
  let ncells = List.length family.fa_cells in
  let stats = Array.make ncells zero_stats in
  List.iter
    (fun sh ->
      if sh.sw_family <> family.fa_name then
        invalid_arg "Sweep.merge: shard from a different family";
      if Array.length sh.sw_stats <> ncells then
        invalid_arg "Sweep.merge: shard cell count mismatch";
      Array.iteri (fun i st -> stats.(i) <- add_stats stats.(i) st) sh.sw_stats)
    shards;
  let cells =
    List.map
      (fun cell ->
        let st = stats.(cell.cl_index) in
        let lres = Lint.analyze cell.cl_model in
        let rules =
          List.sort_uniq String.compare
            (List.map (fun h -> h.Lint.h_rule) lres.Lint.res_hits)
        in
        {
          cr_index = cell.cl_index;
          cr_id = cell.cl_id;
          cr_params = cell.cl_params;
          cr_stats = st;
          cr_lint_rules = rules;
          cr_verdict = verdict_of_stats st;
        })
      family.fa_cells
  in
  {
    rs_family = family.fa_name;
    rs_row = family.fa_row;
    rs_col = family.fa_col;
    rs_iters = iters;
    rs_seed = seed;
    rs_cells = cells;
  }

let exit_code r =
  if List.exists (fun c -> c.cr_verdict = V_cert_rejected) r.rs_cells then 1
  else 0

(* ------------------------------------------------------------------ *)
(* Serialisation *)

let schema = "c11sweep-v1"

let cell_to_json c =
  Jsonx.Obj
    [
      ("schema", Jsonx.String schema);
      ("record", Jsonx.String "cell");
      ("index", Jsonx.Int c.cr_index);
      ("id", Jsonx.String c.cr_id);
      ( "params",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.String v)) c.cr_params) );
      ("execs", Jsonx.Int c.cr_stats.st_execs);
      ("racy", Jsonx.Int c.cr_stats.st_racy);
      ("torn", Jsonx.Int c.cr_stats.st_torn);
      ("cert_rejected", Jsonx.Int c.cr_stats.st_cert_rejected);
      ("deadlocks", Jsonx.Int c.cr_stats.st_deadlocks);
      ( "lint_rules",
        Jsonx.List (List.map (fun r -> Jsonx.String r) c.cr_lint_rules) );
      ("verdict", Jsonx.String (verdict_name c.cr_verdict));
    ]

let result_to_ndjson r =
  Jsonx.Obj
    [
      ("schema", Jsonx.String schema);
      ("record", Jsonx.String "campaign");
      ("family", Jsonx.String r.rs_family);
      ("row", Jsonx.String r.rs_row);
      ("col", Jsonx.String r.rs_col);
      ("iters", Jsonx.Int r.rs_iters);
      ("seed", Jsonx.String (Printf.sprintf "0x%Lx" r.rs_seed));
      ("cells", Jsonx.Int (List.length r.rs_cells));
    ]
  :: List.map cell_to_json r.rs_cells

let result_to_json r =
  Jsonx.Obj
    [
      ("family", Jsonx.String r.rs_family);
      ("row", Jsonx.String r.rs_row);
      ("col", Jsonx.String r.rs_col);
      ("iters", Jsonx.Int r.rs_iters);
      ("seed", Jsonx.String (Printf.sprintf "0x%Lx" r.rs_seed));
      ("cells", Jsonx.List (List.map cell_to_json r.rs_cells));
    ]

let result_of_ndjson lines =
  let ( let* ) = Result.bind in
  let field ty k j = Jsonx.req schema ty k j in
  let parse_cell j =
    let* cr_index = field Jsonx.int "index" j in
    let* cr_id = field Jsonx.string "id" j in
    let* cr_params = field (Jsonx.obj_of Jsonx.string) "params" j in
    let* st_execs = field Jsonx.int "execs" j in
    let* st_racy = field Jsonx.int "racy" j in
    let* st_torn = field Jsonx.int "torn" j in
    let* st_cert_rejected = field Jsonx.int "cert_rejected" j in
    let* st_deadlocks = field Jsonx.int "deadlocks" j in
    let* cr_lint_rules = field (Jsonx.list_of Jsonx.string) "lint_rules" j in
    let* cr_verdict = field (Jsonx.enum "verdict" verdict_of_name) "verdict" j in
    Ok
      {
        cr_index;
        cr_id;
        cr_params;
        cr_stats = { st_execs; st_racy; st_torn; st_cert_rejected; st_deadlocks };
        cr_lint_rules;
        cr_verdict;
      }
  in
  let rec go campaign cells = function
    | [] -> Ok (campaign, cells)
    | j :: rest -> (
      let* () = field (Jsonx.literal schema) "schema" j in
      let* record = field Jsonx.string "record" j in
      match (record, campaign) with
      | "campaign", None -> go (Some j) cells rest
      | "campaign", Some _ -> Error "c11sweep-v1: duplicate campaign record"
      | "cell", _ ->
        let* c = parse_cell j in
        go campaign (c :: cells) rest
      | r, _ -> Error (Printf.sprintf "c11sweep-v1: unknown record %S" r))
  in
  let* campaign, cells = go None [] lines in
  match campaign with
  | None -> Error "c11sweep-v1: missing campaign record"
  | Some j ->
    let* rs_family = field Jsonx.string "family" j in
    let* rs_row = field Jsonx.string "row" j in
    let* rs_col = field Jsonx.string "col" j in
    let* rs_iters = field Jsonx.int "iters" j in
    let* rs_seed = field Jsonx.int64 "seed" j in
    let* ncells = field Jsonx.int "cells" j in
    let rs_cells =
      List.sort (fun a b -> compare a.cr_index b.cr_index) (List.rev cells)
    in
    if List.length rs_cells <> ncells then
      Error
        (Printf.sprintf "c11sweep-v1: campaign announces %d cells, found %d"
           ncells (List.length rs_cells))
    else Ok { rs_family; rs_row; rs_col; rs_iters; rs_seed; rs_cells }

(* ------------------------------------------------------------------ *)
(* Matrix rendering *)

let uniq_in_order xs =
  List.rev
    (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)

let pp_matrix fmt r =
  let param c k = try List.assoc k c.cr_params with Not_found -> "?" in
  let rows = uniq_in_order (List.map (fun c -> param c r.rs_row) r.rs_cells) in
  let cols = uniq_in_order (List.map (fun c -> param c r.rs_col) r.rs_cells) in
  let block_of c =
    List.filter (fun (k, _) -> k <> r.rs_row && k <> r.rs_col) c.cr_params
  in
  let blocks = uniq_in_order (List.map block_of r.rs_cells) in
  let width =
    List.fold_left (fun w s -> max w (String.length s)) 7 (rows @ cols)
  in
  Format.fprintf fmt "@[<v>sweep %s (%d iters per cell, seed 0x%Lx)@ "
    r.rs_family r.rs_iters r.rs_seed;
  Format.fprintf fmt "rows: %s; cols: %s@ " r.rs_row r.rs_col;
  List.iter
    (fun block ->
      if block <> [] then Format.fprintf fmt "@ [%s]@ " (id_of block);
      Format.fprintf fmt "%*s" (width + 2) "";
      List.iter (fun c -> Format.fprintf fmt " %*s" width c) cols;
      Format.fprintf fmt "@ ";
      List.iter
        (fun row ->
          Format.fprintf fmt "  %*s" width row;
          List.iter
            (fun col ->
              let v =
                match
                  List.find_opt
                    (fun c ->
                      param c r.rs_row = row
                      && param c r.rs_col = col
                      && block_of c = block)
                    r.rs_cells
                with
                | Some c -> verdict_letter c.cr_verdict
                | None -> '?'
              in
              Format.fprintf fmt " %*s" width (String.make 1 v))
            cols;
          Format.fprintf fmt "@ ")
        rows)
    blocks;
  Format.fprintf fmt "@ legend: . clean  T torn-assert  R racy  C cert-rejected@]"
