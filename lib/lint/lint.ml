(* C11lint — static race/order analysis over the Progir IR.  See
   lint.mli for the soundness contract.  Everything here is a pure
   function of the program: no RNG, no wall clock, no engine, so a
   verdict is trivially byte-identical across any sharding. *)

open Progir

type lockset = int list

type access = {
  ac_thread : int;
  ac_op : int;
  ac_write : bool;
  ac_atomic : bool;
  ac_mo : Memorder.t;
  ac_lockset : lockset;
}

type witness = { w_first : access; w_second : access }

type verdict = Race_free | Protected of lockset | Potential_race of witness

type hit = { h_rule : string; h_thread : int; h_op : int; h_detail : string }

type result = {
  res_target : string;
  res_ops : int;
  res_verdicts : (string * verdict) list;
  res_hits : hit list;
  res_race_free : bool;
}

let rule_names =
  [
    "overstrong-order";
    "relaxed-publication";
    "redundant-fence";
    "seqlock-missing-fence";
  ]

(* ------------------------------------------------------------------ *)
(* Locksets.  The ordered, balanced mutex discipline (checked by
   Progir.validate) means the held set at every op is a static fact of
   the thread body, not of any schedule. *)

let locksets_of ops =
  let held = ref [] in
  Array.map
    (fun op ->
      let before = List.sort compare !held in
      (match op with
      | Lock { m } -> held := m :: !held
      | Unlock { m } -> held := List.filter (fun x -> x <> m) !held
      | _ -> ());
      (* the lock itself is not protected by the mutex it acquires; every
         other op sees the set held on entry *)
      match op with
      | Lock { m } -> List.sort compare (m :: before)
      | _ -> before)
    ops

(* ------------------------------------------------------------------ *)
(* Access collection.  Straight-line bodies make this exact: every op
   always executes.  The one over-approximation is Cas, counted as a
   write even though a failed compare-exchange only reads — safe, since
   lint may only err towards Potential_race, never towards Race_free. *)

let accesses p =
  let atomic = Array.make p.p_atomic_locs [] in
  let plain = Array.make p.p_na_locs [] in
  Array.iteri
    (fun t ops ->
      let locks = locksets_of ops in
      Array.iteri
        (fun i op ->
          let add arr loc ~write ~atomic:cls ~mo =
            arr.(loc) <-
              {
                ac_thread = t;
                ac_op = i;
                ac_write = write;
                ac_atomic = cls;
                ac_mo = mo;
                ac_lockset = locks.(i);
              }
              :: arr.(loc)
          in
          match op with
          | Load { loc; mo } -> add atomic loc ~write:false ~atomic:true ~mo
          | Store { loc; mo; _ } -> add atomic loc ~write:true ~atomic:true ~mo
          | Add { loc; mo; _ } | Cas { loc; mo; _ } | Xchg { loc; mo; _ } ->
            add atomic loc ~write:true ~atomic:true ~mo
          | Reuse_load { loc } ->
            add atomic loc ~write:false ~atomic:false ~mo:Memorder.Relaxed
          | Reuse_store { loc; _ } ->
            add atomic loc ~write:true ~atomic:false ~mo:Memorder.Relaxed
          | Na_read { na } ->
            add plain na ~write:false ~atomic:false ~mo:Memorder.Relaxed
          | Na_write { na; _ } ->
            add plain na ~write:true ~atomic:false ~mo:Memorder.Relaxed
          | Fence _ | Lock _ | Unlock _ | Yield -> ())
        ops)
    p.p_threads;
  let order l =
    List.sort (fun a b -> compare (a.ac_thread, a.ac_op) (b.ac_thread, b.ac_op)) l
  in
  (Array.map order atomic, Array.map order plain)

(* ------------------------------------------------------------------ *)
(* Verdicts.  The fork-join shape gives an exact may-happen-in-parallel
   relation: main spawns every thread before running its own body and
   joins them all after it, so any two ops on distinct threads MHP and
   same-thread ops never do.  A pair conflicts when it is MHP, involves
   a write and has a non-atomic side (atomic/atomic pairs never race by
   definition). *)

let inter a b = List.filter (fun x -> List.mem x b) a

let conflicting_pairs accs =
  let rec walk acc = function
    | [] -> List.rev acc
    | a :: rest ->
      let acc =
        List.fold_left
          (fun acc b ->
            if
              a.ac_thread <> b.ac_thread
              && (a.ac_write || b.ac_write)
              && not (a.ac_atomic && b.ac_atomic)
            then (a, b) :: acc
            else acc)
          acc rest
      in
      walk acc rest
  in
  walk [] accs

let verdict_of accs =
  match conflicting_pairs accs with
  | [] -> Race_free
  | pairs -> (
    match
      List.find_opt
        (fun (a, b) -> inter a.ac_lockset b.ac_lockset = [])
        pairs
    with
    | Some (a, b) -> Potential_race { w_first = a; w_second = b }
    | None ->
      (* every conflicting pair shares a mutex; report the union of the
         protecting intersections *)
      let protecting =
        List.concat_map (fun (a, b) -> inter a.ac_lockset b.ac_lockset) pairs
        |> List.sort_uniq compare
      in
      Protected protecting)

(* ------------------------------------------------------------------ *)
(* Order-hygiene rules.  Advisory: a hit never affects [res_race_free]
   (the soundness-bearing bit); it flags order usage that is stronger or
   weaker than the access pattern calls for. *)

(* Orders stronger than relaxed on a location only one thread ever
   touches buy nothing: no other-thread access exists to synchronise
   with through that location.  (A seq_cst op still joins the global SC
   order, so the hit is hygiene, not an equivalence claim.) *)
let overstrong_hits p (atomic : access list array) =
  let hits = ref [] in
  for loc = 0 to p.p_atomic_locs - 1 do
    let accs = atomic.(loc) in
    match List.sort_uniq compare (List.map (fun a -> a.ac_thread) accs) with
    | [ only ] ->
      List.iter
        (fun a ->
          if a.ac_atomic && not (Memorder.equal a.ac_mo Memorder.Relaxed) then
            hits :=
              {
                h_rule = "overstrong-order";
                h_thread = a.ac_thread;
                h_op = a.ac_op;
                h_detail =
                  Printf.sprintf "%s %s of a%d, but only thread %d touches a%d"
                    (Memorder.to_string a.ac_mo)
                    (if a.ac_write then "write" else "load")
                    loc only loc;
              }
              :: !hits)
        accs
    | _ -> ()
  done;
  List.rev !hits

(* Two fences with nothing but yields between them: the weaker (under
   the strength lattice) is redundant. *)
let redundant_fence_hits p =
  let hits = ref [] in
  Array.iteri
    (fun t ops ->
      let prev = ref None in
      Array.iteri
        (fun i op ->
          match op with
          | Fence mo -> (
            (match !prev with
            | Some (pi, pmo) ->
              if Memorder.stronger_than pmo mo then
                hits :=
                  {
                    h_rule = "redundant-fence";
                    h_thread = t;
                    h_op = i;
                    h_detail =
                      Printf.sprintf
                        "%s fence subsumed by the adjacent %s fence at op %d"
                        (Memorder.to_string mo) (Memorder.to_string pmo) pi;
                  }
                  :: !hits
              else if Memorder.stronger_than mo pmo then
                hits :=
                  {
                    h_rule = "redundant-fence";
                    h_thread = t;
                    h_op = pi;
                    h_detail =
                      Printf.sprintf
                        "%s fence subsumed by the adjacent %s fence at op %d"
                        (Memorder.to_string pmo) (Memorder.to_string mo) i;
                  }
                  :: !hits
            | None -> ());
            prev := Some (i, mo))
          | Yield -> ()
          | _ -> prev := None)
        ops)
    p.p_threads;
  List.rev !hits

(* Message-passing skeleton around a potential race: a non-atomic write
   later published through an atomic store whose value the racing reader
   checks through an atomic load of the same location.  If such a
   channel exists but no channel carries release/acquire (orders or
   fences), the publication is relaxed — the classic bug of Section 8.1
   (the rwlock's relaxed unlock exchange is exactly this shape). *)
let publication_hits p (verdicts : (string * verdict) list) =
  let ops_of t = p.p_threads.(t) in
  let is_atomic_write = function
    | Store _ | Add _ | Cas _ | Xchg _ -> true
    | _ -> false
  in
  let is_atomic_read = function
    | Load _ | Add _ | Cas _ | Xchg _ -> true
    | _ -> false
  in
  let loc_of = function
    | Store { loc; _ } | Add { loc; _ } | Cas { loc; _ } | Xchg { loc; _ }
    | Load { loc; _ } ->
      Some loc
    | _ -> None
  in
  let mo_of = function
    | Store { mo; _ } | Add { mo; _ } | Cas { mo; _ } | Xchg { mo; _ }
    | Load { mo; _ } ->
      mo
    | _ -> Memorder.Relaxed
  in
  let fence_between ~pred ops i j =
    let ok = ref false in
    for k = i + 1 to j - 1 do
      match ops.(k) with Fence mo when pred mo -> ok := true | _ -> ()
    done;
    !ok
  in
  let hit_for (w : access) (r : access) =
    let wops = ops_of w.ac_thread and rops = ops_of r.ac_thread in
    (* every publication channel: atomic write after the racy write in
       the writer, atomic read of the same location before the racy
       access in the reader *)
    let channels = ref [] in
    Array.iteri
      (fun si sop ->
        if si > w.ac_op && is_atomic_write sop then
          match loc_of sop with
          | Some f ->
            Array.iteri
              (fun li lop ->
                if li < r.ac_op && is_atomic_read lop && loc_of lop = Some f
                then channels := (f, si, sop, li, lop) :: !channels)
              rops
          | None -> ())
      wops;
    let channels = List.rev !channels in
    let strong (_, si, sop, li, lop) =
      let rel =
        Memorder.is_release (mo_of sop)
        || fence_between ~pred:Memorder.is_release wops w.ac_op si
      in
      let acq =
        Memorder.is_acquire (mo_of lop)
        || fence_between ~pred:Memorder.is_acquire rops li r.ac_op
      in
      rel && acq
    in
    match channels with
    | [] -> None
    | _ when List.exists strong channels -> None
    | (f, si, sop, li, lop) :: _ ->
      let missing =
        let rel =
          Memorder.is_release (mo_of sop)
          || fence_between ~pred:Memorder.is_release wops w.ac_op si
        in
        let acq =
          Memorder.is_acquire (mo_of lop)
          || fence_between ~pred:Memorder.is_acquire rops li r.ac_op
        in
        match (rel, acq) with
        | false, false -> "no release on the store side, no acquire on the load side"
        | false, true -> "no release order or fence on the store side"
        | true, false -> "no acquire order or fence on the load side"
        | true, true -> assert false
      in
      Some
        {
          h_rule = "relaxed-publication";
          h_thread = w.ac_thread;
          h_op = si;
          h_detail =
            Printf.sprintf
              "non-atomic write (thread %d op %d) published through a%d \
               (store op %d, load at thread %d op %d): %s"
              w.ac_thread w.ac_op f si r.ac_thread li missing;
        }
  in
  List.filter_map
    (fun (_, v) ->
      match v with
      | Potential_race { w_first; w_second } -> (
        (* orient the witness: a non-atomic write is the published side *)
        let pick w r = if w.ac_write && not w.ac_atomic then hit_for w r else None in
        match pick w_first w_second with
        | Some h -> Some h
        | None -> pick w_second w_first)
      | _ -> None)
    verdicts

(* Seqlock-style versioned read (the SNIPPETS versioned-read study): a
   double read of the same atomic location validating data reads between
   the two.  The working C11 mapping needs an acquire (order or fence)
   between the first version read and the data, and a fence between the
   data and the second version read; flag double-reads missing either. *)
let seqlock_hits p =
  let hits = ref [] in
  Array.iteri
    (fun t ops ->
      let n = Array.length ops in
      for i1 = 0 to n - 1 do
        match ops.(i1) with
        | Load { loc = l; mo = mo1 } -> (
          (* the next load of [l] with no same-thread write to [l] between *)
          let i2 = ref (-1) and k = ref (i1 + 1) and blocked = ref false in
          while !i2 < 0 && (not !blocked) && !k < n do
            (match ops.(!k) with
            | Load { loc; _ } when loc = l -> i2 := !k
            | Store { loc; _ }
            | Add { loc; _ }
            | Cas { loc; _ }
            | Xchg { loc; _ }
            | Reuse_store { loc; _ }
              when loc = l ->
              blocked := true
            | _ -> ());
            incr k
          done;
          if !i2 > 0 then begin
            let i2 = !i2 in
            let data =
              List.filter
                (fun k ->
                  match ops.(k) with
                  | Na_read _ | Reuse_load _ -> true
                  | Load { loc; _ } -> loc <> l
                  | _ -> false)
                (List.init (i2 - i1 - 1) (fun d -> i1 + 1 + d))
            in
            match data with
            | [] -> ()
            | first_data :: _ ->
              let last_data = List.nth data (List.length data - 1) in
              let fence_in ~pred a b =
                let ok = ref false in
                for k = a + 1 to b - 1 do
                  match ops.(k) with
                  | Fence mo when pred mo -> ok := true
                  | _ -> ()
                done;
                !ok
              in
              let acquire_ok =
                Memorder.is_acquire mo1
                || fence_in ~pred:Memorder.is_acquire i1 first_data
              in
              let validate_ok = fence_in ~pred:(fun _ -> true) last_data i2 in
              if not (acquire_ok && validate_ok) then
                hits :=
                  {
                    h_rule = "seqlock-missing-fence";
                    h_thread = t;
                    h_op = i1;
                    h_detail =
                      Printf.sprintf
                        "double read of a%d (ops %d and %d) validates reads \
                         between them but %s"
                        l i1 i2
                        (match (acquire_ok, validate_ok) with
                        | false, false ->
                          "has neither an acquire after the first read nor a \
                           fence before the second"
                        | false, true -> "lacks an acquire after the first read"
                        | true, false -> "lacks a fence before the second read"
                        | true, true -> assert false);
                  }
                  :: !hits
          end)
        | _ -> ()
      done)
    p.p_threads;
  List.rev !hits

(* ------------------------------------------------------------------ *)
(* The analysis entry point. *)

let analyze ?(label = "") p =
  let atomic, plain = accesses p in
  let verdicts =
    List.init p.p_atomic_locs (fun i ->
        (Progir.atomic_name i, verdict_of atomic.(i)))
    @ List.init p.p_na_locs (fun i -> (Progir.na_name i, verdict_of plain.(i)))
  in
  let hits =
    overstrong_hits p atomic
    @ publication_hits p verdicts
    @ redundant_fence_hits p
    @ seqlock_hits p
  in
  let race_free =
    List.for_all
      (fun (_, v) -> match v with Potential_race _ -> false | _ -> true)
      verdicts
  in
  {
    res_target = label;
    res_ops = op_count p;
    res_verdicts = verdicts;
    res_hits = hits;
    res_race_free = race_free;
  }

let statically_race_free p = (analyze p).res_race_free
let race_potential p = not (analyze p).res_race_free
let clean r = r.res_race_free && r.res_hits = []

(* ------------------------------------------------------------------ *)
(* Serialisation: the c11lint-v1 NDJSON artifact. *)

let schema = "c11lint-v1"

let access_to_json a =
  Jsonx.Obj
    [
      ("thread", Jsonx.Int a.ac_thread);
      ("op", Jsonx.Int a.ac_op);
      ("write", Jsonx.Bool a.ac_write);
      ("atomic", Jsonx.Bool a.ac_atomic);
      ("mo", Jsonx.String (Memorder.to_string a.ac_mo));
      ("locks", Jsonx.List (List.map (fun m -> Jsonx.Int m) a.ac_lockset));
    ]

let verdict_to_json (loc, v) =
  let base = [ ("loc", Jsonx.String loc) ] in
  Jsonx.Obj
    (base
    @
    match v with
    | Race_free -> [ ("verdict", Jsonx.String "race_free") ]
    | Protected ls ->
      [
        ("verdict", Jsonx.String "protected");
        ("mutexes", Jsonx.List (List.map (fun m -> Jsonx.Int m) ls));
      ]
    | Potential_race w ->
      [
        ("verdict", Jsonx.String "potential_race");
        ("first", access_to_json w.w_first);
        ("second", access_to_json w.w_second);
      ])

let hit_to_json h =
  Jsonx.Obj
    [
      ("rule", Jsonx.String h.h_rule);
      ("thread", Jsonx.Int h.h_thread);
      ("op", Jsonx.Int h.h_op);
      ("detail", Jsonx.String h.h_detail);
    ]

let result_to_json ~index r =
  Jsonx.Obj
    [
      ("schema", Jsonx.String schema);
      ("kind", Jsonx.String "target");
      ("index", Jsonx.Int index);
      ("target", Jsonx.String r.res_target);
      ("ops", Jsonx.Int r.res_ops);
      ("race_free", Jsonx.Bool r.res_race_free);
      ("verdicts", Jsonx.List (List.map verdict_to_json r.res_verdicts));
      ("lints", Jsonx.List (List.map hit_to_json r.res_hits));
    ]

let campaign_to_ndjson results =
  Jsonx.Obj
    [
      ("schema", Jsonx.String schema);
      ("kind", Jsonx.String "campaign");
      ("targets", Jsonx.Int (List.length results));
    ]
  :: List.map (fun (i, r) -> result_to_json ~index:i r) results

(* Parse side — the read half of [c11test report]. *)

let member_str j k = Option.bind (Jsonx.member k j) Jsonx.to_str
let member_int j k = Option.bind (Jsonx.member k j) Jsonx.to_int
let member_bool j k =
  match Jsonx.member k j with Some (Jsonx.Bool b) -> Some b | _ -> None

let access_of_json j =
  match
    ( member_int j "thread",
      member_int j "op",
      member_bool j "write",
      member_bool j "atomic",
      Option.bind (member_str j "mo") Memorder.of_string )
  with
  | Some t, Some o, Some w, Some a, Some mo ->
    let locks =
      match Jsonx.member "locks" j with
      | Some (Jsonx.List l) -> List.filter_map Jsonx.to_int l
      | _ -> []
    in
    Ok
      {
        ac_thread = t;
        ac_op = o;
        ac_write = w;
        ac_atomic = a;
        ac_mo = mo;
        ac_lockset = locks;
      }
  | _ -> Error "malformed access"

let verdict_of_json j =
  match (member_str j "loc", member_str j "verdict") with
  | Some loc, Some "race_free" -> Ok (loc, Race_free)
  | Some loc, Some "protected" ->
    let ls =
      match Jsonx.member "mutexes" j with
      | Some (Jsonx.List l) -> List.filter_map Jsonx.to_int l
      | _ -> []
    in
    Ok (loc, Protected ls)
  | Some loc, Some "potential_race" -> (
    match
      ( Option.map access_of_json (Jsonx.member "first" j),
        Option.map access_of_json (Jsonx.member "second" j) )
    with
    | Some (Ok a), Some (Ok b) ->
      Ok (loc, Potential_race { w_first = a; w_second = b })
    | _ -> Error "malformed witness")
  | _ -> Error "malformed verdict"

let hit_of_json j =
  match
    ( member_str j "rule",
      member_int j "thread",
      member_int j "op",
      member_str j "detail" )
  with
  | Some r, Some t, Some o, Some d ->
    Ok { h_rule = r; h_thread = t; h_op = o; h_detail = d }
  | _ -> Error "malformed lint hit"

let collect f l =
  List.fold_left
    (fun acc x ->
      match (acc, f x) with
      | Error e, _ -> Error e
      | _, Error e -> Error e
      | Ok xs, Ok v -> Ok (v :: xs))
    (Ok []) l
  |> Result.map List.rev

let result_of_json j =
  match
    ( member_int j "index",
      member_str j "target",
      member_int j "ops",
      member_bool j "race_free" )
  with
  | Some index, Some target, Some ops, Some rf -> (
    let verdicts =
      match Jsonx.member "verdicts" j with
      | Some (Jsonx.List l) -> collect verdict_of_json l
      | _ -> Error "missing verdicts"
    in
    let hits =
      match Jsonx.member "lints" j with
      | Some (Jsonx.List l) -> collect hit_of_json l
      | _ -> Error "missing lints"
    in
    match (verdicts, hits) with
    | Ok vs, Ok hs ->
      Ok
        ( index,
          {
            res_target = target;
            res_ops = ops;
            res_verdicts = vs;
            res_hits = hs;
            res_race_free = rf;
          } )
    | Error e, _ | _, Error e -> Error e)
  | _ -> Error "malformed target record"

let campaign_of_ndjson docs =
  let targets = ref [] in
  let declared = ref None in
  let err = ref None in
  List.iter
    (fun j ->
      if !err = None then
        match member_str j "schema" with
        | Some s when s = schema -> (
          match member_str j "kind" with
          | Some "campaign" -> declared := member_int j "targets"
          | Some "target" -> (
            match result_of_json j with
            | Ok r -> targets := r :: !targets
            | Error e -> err := Some e)
          | _ -> err := Some "unknown c11lint-v1 record kind")
        | _ -> err := Some "record is not c11lint-v1")
    docs;
  match !err with
  | Some e -> Error e
  | None ->
    let results =
      List.sort (fun (a, _) (b, _) -> compare a b) (List.rev !targets)
    in
    (match !declared with
    | Some n when n <> List.length results ->
      Error
        (Printf.sprintf "campaign record declares %d targets, found %d" n
           (List.length results))
    | _ -> Ok results)

(* ------------------------------------------------------------------ *)
(* Pretty-printing. *)

let pp_verdict fmt = function
  | Race_free -> Format.pp_print_string fmt "race-free"
  | Protected ls ->
    Format.fprintf fmt "protected by {%s}"
      (String.concat "," (List.map (Printf.sprintf "m%d") ls))
  | Potential_race { w_first = a; w_second = b } ->
    Format.fprintf fmt "POTENTIAL RACE: thread %d op %d (%s) / thread %d op %d (%s)"
      a.ac_thread a.ac_op
      (if a.ac_write then "write" else "read")
      b.ac_thread b.ac_op
      (if b.ac_write then "write" else "read")

let pp_result fmt r =
  Format.fprintf fmt "@[<v 2>%s: %s@ "
    (if r.res_target = "" then "<program>" else r.res_target)
    (if clean r then "clean"
     else if r.res_race_free then "race-free, lint hits"
     else "race-potential");
  List.iter
    (fun (loc, v) -> Format.fprintf fmt "%-4s %a@ " loc pp_verdict v)
    r.res_verdicts;
  List.iter
    (fun h ->
      Format.fprintf fmt "lint %s (thread %d op %d): %s@ " h.h_rule h.h_thread
        h.h_op h.h_detail)
    r.res_hits;
  Format.fprintf fmt "@]"
