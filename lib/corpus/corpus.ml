(* C11corpus — see corpus.mli for the contract. *)

type entry = {
  en_digest : string;
  en_index : int;
  en_seed : int64;
  en_keys : string list;
  en_program : Progir.program;
}

let schema = "c11corpus-v1"

let entry_to_json e =
  Jsonx.Obj
    [
      ("schema", Jsonx.String schema);
      ("digest", Jsonx.String e.en_digest);
      ("index", Jsonx.Int e.en_index);
      ("seed", Jsonx.String (Printf.sprintf "0x%Lx" e.en_seed));
      ("keys", Jsonx.List (List.map (fun k -> Jsonx.String k) e.en_keys));
      ("program", Progir.program_to_json e.en_program);
    ]

let entry_of_json j =
  let ( let* ) = Result.bind in
  let field ty k = Jsonx.req "entry" ty k j in
  let* () = field (Jsonx.literal schema) "schema" in
  let* en_digest = field Jsonx.string "digest" in
  let* en_index = field Jsonx.int "index" in
  let* en_seed = field Jsonx.int64 "seed" in
  let* en_keys = field (Jsonx.list_of Jsonx.string) "keys" in
  let* program = field Jsonx.obj "program" in
  let* en_program = Progir.program_of_json program in
  Ok { en_digest; en_index; en_seed; en_keys; en_program }

(* ------------------------------------------------------------------ *)
(* Storage *)

type t = { t_dir : string }

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir dir =
  match
    mkdir_p dir;
    (* probe writability now: an unwritable corpus is a usage error the
       caller reports before the campaign starts, not after *)
    let probe = Filename.concat dir (Printf.sprintf ".probe.%d" (Unix.getpid ())) in
    let oc = open_out probe in
    close_out oc;
    Sys.remove probe
  with
  | () -> Ok { t_dir = dir }
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "%s: %s" arg (Unix.error_message e))

let dir t = t.t_dir

let path_of t digest = Filename.concat t.t_dir (digest ^ ".json")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let load t =
  let names =
    match Sys.readdir t.t_dir with
    | names -> Array.to_list names
    | exception Sys_error _ -> []
  in
  let names =
    List.filter (fun n -> Filename.check_suffix n ".json") names
    |> List.sort String.compare
  in
  List.filter_map
    (fun name ->
      let path = Filename.concat t.t_dir name in
      let parsed =
        match Jsonx.parse (read_file path) with
        | Ok j -> entry_of_json j
        | Error e -> Error e
        | exception Sys_error msg -> Error msg
      in
      let parsed =
        (* the filename is the storage key; a mismatch means the entry
           was renamed or tampered with — treat it as corrupt *)
        match parsed with
        | Ok e when Filename.chop_suffix name ".json" <> e.en_digest ->
          Error "digest does not match filename"
        | r -> r
      in
      match parsed with
      | Ok e -> Some e
      | Error msg ->
        Printf.eprintf "c11test: corpus: skipping corrupt entry %s (%s); deleting\n%!"
          name msg;
        (try Sys.remove path with Sys_error _ -> ());
        None)
    names

let store t e =
  let path = path_of t e.en_digest in
  if Sys.file_exists path then false
  else begin
    let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
    let body = Jsonx.to_string (entry_to_json e) ^ "\n" in
    let oc = open_out_bin tmp in
    (match
       output_string oc body;
       close_out oc
     with
    | () -> Sys.rename tmp path
    | exception ex ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      raise ex);
    true
  end

(* ------------------------------------------------------------------ *)
(* Mutation *)

open Progir

(* Memory-order rings per access category, in lattice order; a rotation
   steps to the next strictly-valid order for that category and wraps —
   "rotate along the lattice" without ever producing an illegal
   combination (no release loads, no acquire stores). *)
let ring_load = [ Memorder.Relaxed; Memorder.Consume; Memorder.Acquire; Memorder.Seq_cst ]
let ring_store = [ Memorder.Relaxed; Memorder.Release; Memorder.Seq_cst ]

let ring_rmw =
  [ Memorder.Relaxed; Memorder.Acquire; Memorder.Release; Memorder.Acq_rel;
    Memorder.Seq_cst ]

let ring_fence = [ Memorder.Acquire; Memorder.Release; Memorder.Acq_rel; Memorder.Seq_cst ]

let rotate_in ring mo =
  let rec go = function
    | [] -> List.hd ring
    | m :: rest -> if Memorder.equal m mo then (match rest with [] -> List.hd ring | n :: _ -> n) else go rest
  in
  go ring

let rotate_op = function
  | Load f -> Some (Load { f with mo = rotate_in ring_load f.mo })
  | Store f -> Some (Store { f with mo = rotate_in ring_store f.mo })
  | Add f -> Some (Add { f with mo = rotate_in ring_rmw f.mo })
  | Cas f -> Some (Cas { f with mo = rotate_in ring_rmw f.mo })
  | Xchg f -> Some (Xchg { f with mo = rotate_in ring_rmw f.mo })
  | Fence mo -> Some (Fence (rotate_in ring_fence mo))
  | Na_read _ | Na_write _ | Reuse_load _ | Reuse_store _ | Lock _ | Unlock _ | Yield ->
    None

(* Threads with at least one op, as indices. *)
let busy_threads p =
  List.filter
    (fun t -> Array.length p.p_threads.(t) > 0)
    (List.init (Array.length p.p_threads) Fun.id)

let pick_nth rng l = List.nth l (Rng.int rng (List.length l))

let drop_unit rng p =
  match busy_threads p with
  | [] -> p
  | ts ->
    let t = pick_nth rng ts in
    let unit = pick_nth rng (units_of p.p_threads.(t)) in
    with_thread p t (remove_indices p.p_threads.(t) unit)

let dup_unit rng p =
  match busy_threads p with
  | [] -> p
  | ts ->
    let t = pick_nth rng ts in
    let ops = p.p_threads.(t) in
    let unit = pick_nth rng (units_of ops) in
    (* a single op duplicates in place; a lock/unlock pair duplicates
       with its whole region right after itself, where the held-mutex
       stack equals the stack at its start, preserving the ordered
       discipline *)
    let lo = List.fold_left min max_int unit in
    let hi = List.fold_left max (-1) unit in
    let seg = Array.sub ops lo (hi - lo + 1) in
    (* a copy that would take the body past Progir's op bound leaves the
       program as it is *)
    if Array.length ops + Array.length seg > Progir.max_ops then p
    else
      let out =
        Array.concat [ Array.sub ops 0 (hi + 1); seg;
                       Array.sub ops (hi + 1) (Array.length ops - hi - 1) ]
      in
      with_thread p t out

let rotate_mo rng p =
  let sites =
    List.concat_map
      (fun t ->
        List.filter_map
          (fun i -> Option.map (fun op' -> (t, i, op')) (rotate_op p.p_threads.(t).(i)))
          (List.init (Array.length p.p_threads.(t)) Fun.id))
      (List.init (Array.length p.p_threads) Fun.id)
  in
  match sites with
  | [] -> p
  | _ ->
    let t, i, op' = pick_nth rng sites in
    let ops = Array.copy p.p_threads.(t) in
    ops.(i) <- op';
    with_thread p t ops

let swap_locs rng p =
  let swap_atomic a b =
    let m loc = if loc = a then b else if loc = b then a else loc in
    {
      p with
      p_threads =
        Array.map
          (Array.map (function
            | Load f -> Load { f with loc = m f.loc }
            | Store f -> Store { f with loc = m f.loc }
            | Add f -> Add { f with loc = m f.loc }
            | Cas f -> Cas { f with loc = m f.loc }
            | Xchg f -> Xchg { f with loc = m f.loc }
            | Reuse_load f -> Reuse_load { loc = m f.loc }
            | Reuse_store f -> Reuse_store { f with loc = m f.loc }
            | (Na_read _ | Na_write _ | Fence _ | Lock _ | Unlock _ | Yield) as o -> o))
          p.p_threads;
    }
  in
  let swap_na a b =
    let m na = if na = a then b else if na = b then a else na in
    {
      p with
      p_threads =
        Array.map
          (Array.map (function
            | Na_read f -> Na_read { na = m f.na }
            | Na_write f -> Na_write { f with na = m f.na }
            | o -> o))
          p.p_threads;
    }
  in
  if p.p_atomic_locs >= 2 then begin
    let a = Rng.int rng p.p_atomic_locs in
    let b = (a + 1 + Rng.int rng (p.p_atomic_locs - 1)) mod p.p_atomic_locs in
    swap_atomic a b
  end
  else if p.p_na_locs >= 2 then begin
    let a = Rng.int rng p.p_na_locs in
    let b = (a + 1 + Rng.int rng (p.p_na_locs - 1)) mod p.p_na_locs in
    swap_na a b
  end
  else p

let mutate ~rng p =
  let steps = 1 + Rng.int rng 3 in
  let cur = ref p in
  for _ = 1 to steps do
    (* inapplicable operators leave the program unchanged but still
       consume the same rng draws, so the schedule stays a pure function
       of the stream *)
    match Rng.int rng 100 with
    | r when r < 40 -> cur := rotate_mo rng !cur
    | r when r < 60 -> cur := drop_unit rng !cur
    | r when r < 80 -> cur := dup_unit rng !cur
    | _ -> cur := swap_locs rng !cur
  done;
  !cur

(* ------------------------------------------------------------------ *)
(* Plan *)

type plan = { pl_entries : entry list; pl_mutate_pct : int; pl_round : int }

let default_mutate_pct = 60
let default_round = 250

let plan ?(mutate_pct = default_mutate_pct) ?(round = default_round) entries =
  if mutate_pct < 0 || mutate_pct > 100 then
    invalid_arg "Corpus.plan: mutate_pct must be in [0,100]";
  if round < 1 then invalid_arg "Corpus.plan: round must be >= 1";
  { pl_entries = entries; pl_mutate_pct = mutate_pct; pl_round = round }
