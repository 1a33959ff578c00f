(* The generated-program IR, here so the static analyzer (Lint) and the
   fuzzer can share it without a dependency cycle. *)

type profile = Mixed | Sc_heavy | Rmw_chain | Mixed_atomicity

let profile_name = function
  | Mixed -> "mixed"
  | Sc_heavy -> "sc-heavy"
  | Rmw_chain -> "rmw-chain"
  | Mixed_atomicity -> "mixed-atomicity"

let profile_of_string = function
  | "mixed" -> Some Mixed
  | "sc-heavy" -> Some Sc_heavy
  | "rmw-chain" -> Some Rmw_chain
  | "mixed-atomicity" -> Some Mixed_atomicity
  | _ -> None

let all_profiles = [ Mixed; Sc_heavy; Rmw_chain; Mixed_atomicity ]

type op =
  | Load of { loc : int; mo : Memorder.t }
  | Store of { loc : int; mo : Memorder.t; value : int }
  | Add of { loc : int; mo : Memorder.t; delta : int }
  | Cas of { loc : int; mo : Memorder.t; expected : int; desired : int }
  | Xchg of { loc : int; mo : Memorder.t; value : int }
  | Fence of Memorder.t
  | Na_read of { na : int }
  | Na_write of { na : int; value : int }
  | Reuse_load of { loc : int }
  | Reuse_store of { loc : int; value : int }
  | Lock of { m : int }
  | Unlock of { m : int }
  | Yield

type program = {
  p_seed : int64;
  p_profile : profile;
  p_atomic_locs : int;
  p_na_locs : int;
  p_mutexes : int;
  p_threads : op array array;
}

(* Location names, formatted once: every execution of a generated
   program names its locations, and so does every analysis of one.  The
   table covers any program the generator builds; an index past it is
   formatted. *)
let name_table_size = 64
let atomic_names = Array.init name_table_size (fun i -> "a" ^ string_of_int i)
let na_names = Array.init name_table_size (fun i -> "n" ^ string_of_int i)

let atomic_name i =
  if i >= 0 && i < name_table_size then Array.unsafe_get atomic_names i
  else "a" ^ string_of_int i

let na_name i =
  if i >= 0 && i < name_table_size then Array.unsafe_get na_names i
  else "n" ^ string_of_int i

let op_count p =
  Array.fold_left (fun acc ops -> acc + Array.length ops) 0 p.p_threads

(* ------------------------------------------------------------------ *)
(* Op-unit editing machinery.

   Born in the fuzzer's shrinker; hoisted here so corpus mutation
   (lib/corpus) edits programs with the identical notion of a deletable
   unit.  A lock and its matching unlock form one unit: removing either
   alone would break the discipline [validate] checks. *)

let lock_pairs ops =
  let pairs = Hashtbl.create 4 in
  let stack = ref [] in
  Array.iteri
    (fun i op ->
      match op with
      | Lock _ -> stack := i :: !stack
      | Unlock _ ->
        let l = List.hd !stack in
        stack := List.tl !stack;
        Hashtbl.replace pairs l i;
        Hashtbl.replace pairs i l
      | _ -> ())
    ops;
  pairs

let remove_indices ops to_remove =
  let keep = ref [] in
  Array.iteri (fun i op -> if not (List.mem i to_remove) then keep := op :: !keep) ops;
  Array.of_list (List.rev !keep)

let with_thread p t ops =
  let threads = Array.copy p.p_threads in
  threads.(t) <- ops;
  { p with p_threads = threads }

let without_thread p t =
  if t = 0 then with_thread p 0 [||]
  else begin
    let threads =
      Array.init
        (Array.length p.p_threads - 1)
        (fun i -> p.p_threads.(if i < t then i else i + 1))
    in
    { p with p_threads = threads }
  end

(* Deletion units of one thread body, as index lists (op [i] alone, or a
   lock/unlock pair), in ascending order of first index. *)
let units_of ops =
  let pairs = lock_pairs ops in
  let units = ref [] in
  Array.iteri
    (fun i op ->
      match op with
      | Unlock _ -> ()  (* handled with its lock *)
      | Lock _ -> units := [ i; Hashtbl.find pairs i ] :: !units
      | _ -> units := [ i ] :: !units)
    ops;
  List.rev !units

(* Bounds on every count a program carries, far above what generation (by
   default 3 spawned threads, 8 ops, 3 atomic and 2 plain locations, 2
   mutexes) and corpus mutation produce: a decoded corpus entry past one
   is refused, where running it could exhaust memory. *)
let max_threads = 64
let max_ops = 1024
let max_atomic_locs = 64
let max_na_locs = 64
let max_mutexes = 64

let validate p =
  let err fmt = Format.kasprintf (fun s -> Error s) fmt in
  let check_op t i held op =
    let in_range what v n =
      if v < 0 || v >= n then err "thread %d op %d: %s %d out of range [0,%d)" t i what v n
      else Ok held
    in
    match op with
    | Load { loc; _ } | Reuse_load { loc } -> in_range "atomic loc" loc p.p_atomic_locs
    | Store { loc; _ } | Add { loc; _ } | Cas { loc; _ } | Xchg { loc; _ }
    | Reuse_store { loc; _ } ->
      in_range "atomic loc" loc p.p_atomic_locs
    | Na_read { na } | Na_write { na; _ } -> in_range "plain loc" na p.p_na_locs
    | Fence _ | Yield -> Ok held
    | Lock { m } ->
      if m < 0 || m >= p.p_mutexes then
        err "thread %d op %d: mutex %d out of range [0,%d)" t i m p.p_mutexes
      else begin
        match held with
        | top :: _ when m <= top ->
          err "thread %d op %d: lock %d violates order (holding %d)" t i m top
        | _ -> Ok (m :: held)
      end
    | Unlock { m } -> (
      match held with
      | top :: rest when top = m -> Ok rest
      | top :: _ -> err "thread %d op %d: unlock %d but innermost held is %d" t i m top
      | [] -> err "thread %d op %d: unlock %d while holding nothing" t i m)
  in
  let ( let* ) = Result.bind in
  let over what n bound =
    if n > bound then err "%s %d over the bound %d" what n bound else Ok ()
  in
  if Array.length p.p_threads = 0 then Error "no main thread"
  else if p.p_atomic_locs < 0 || p.p_na_locs < 0 || p.p_mutexes < 0 then
    Error "negative location count"
  else begin
    let* () = over "threads" (Array.length p.p_threads) max_threads in
    let* () = over "atomic locations" p.p_atomic_locs max_atomic_locs in
    let* () = over "plain locations" p.p_na_locs max_na_locs in
    let* () = over "mutexes" p.p_mutexes max_mutexes in
    let* () =
      Array.fold_left
        (fun acc ops ->
          let* () = acc in
          over "ops in a thread" (Array.length ops) max_ops)
        (Ok ()) p.p_threads
    in
    let result = ref (Ok ()) in
    Array.iteri
      (fun t ops ->
        if !result = Ok () then begin
          let held = ref (Ok []) in
          Array.iteri
            (fun i op ->
              match !held with
              | Error _ -> ()
              | Ok h -> held := check_op t i h op)
            ops;
          match !held with
          | Error e -> result := Error e
          | Ok [] -> ()
          | Ok (m :: _) -> result := Error (Printf.sprintf "thread %d exits holding mutex %d" t m)
        end)
      p.p_threads;
    !result
  end

(* ------------------------------------------------------------------ *)
(* JSON (de)serialization — the corpus-entry persistence format.  One
   compact object per op, tagged by "k"; the reader rejects anything it
   does not recognise so a corrupt corpus file surfaces as an [Error],
   never a crash or a silently different program. *)

let mo_json mo = Jsonx.String (Memorder.to_string mo)

let op_to_json = function
  | Load { loc; mo } ->
    Jsonx.Obj [ ("k", Jsonx.String "load"); ("loc", Jsonx.Int loc); ("mo", mo_json mo) ]
  | Store { loc; mo; value } ->
    Jsonx.Obj
      [ ("k", Jsonx.String "store"); ("loc", Jsonx.Int loc); ("mo", mo_json mo);
        ("value", Jsonx.Int value) ]
  | Add { loc; mo; delta } ->
    Jsonx.Obj
      [ ("k", Jsonx.String "add"); ("loc", Jsonx.Int loc); ("mo", mo_json mo);
        ("delta", Jsonx.Int delta) ]
  | Cas { loc; mo; expected; desired } ->
    Jsonx.Obj
      [ ("k", Jsonx.String "cas"); ("loc", Jsonx.Int loc); ("mo", mo_json mo);
        ("expected", Jsonx.Int expected); ("desired", Jsonx.Int desired) ]
  | Xchg { loc; mo; value } ->
    Jsonx.Obj
      [ ("k", Jsonx.String "xchg"); ("loc", Jsonx.Int loc); ("mo", mo_json mo);
        ("value", Jsonx.Int value) ]
  | Fence mo -> Jsonx.Obj [ ("k", Jsonx.String "fence"); ("mo", mo_json mo) ]
  | Na_read { na } -> Jsonx.Obj [ ("k", Jsonx.String "na_read"); ("na", Jsonx.Int na) ]
  | Na_write { na; value } ->
    Jsonx.Obj
      [ ("k", Jsonx.String "na_write"); ("na", Jsonx.Int na); ("value", Jsonx.Int value) ]
  | Reuse_load { loc } ->
    Jsonx.Obj [ ("k", Jsonx.String "reuse_load"); ("loc", Jsonx.Int loc) ]
  | Reuse_store { loc; value } ->
    Jsonx.Obj
      [ ("k", Jsonx.String "reuse_store"); ("loc", Jsonx.Int loc);
        ("value", Jsonx.Int value) ]
  | Lock { m } -> Jsonx.Obj [ ("k", Jsonx.String "lock"); ("m", Jsonx.Int m) ]
  | Unlock { m } -> Jsonx.Obj [ ("k", Jsonx.String "unlock"); ("m", Jsonx.Int m) ]
  | Yield -> Jsonx.Obj [ ("k", Jsonx.String "yield") ]

let program_to_json p =
  Jsonx.Obj
    [
      ("seed", Jsonx.String (Printf.sprintf "0x%Lx" p.p_seed));
      ("profile", Jsonx.String (profile_name p.p_profile));
      ("atomic_locs", Jsonx.Int p.p_atomic_locs);
      ("na_locs", Jsonx.Int p.p_na_locs);
      ("mutexes", Jsonx.Int p.p_mutexes);
      ( "threads",
        Jsonx.List
          (Array.to_list
             (Array.map
                (fun ops -> Jsonx.List (Array.to_list (Array.map op_to_json ops)))
                p.p_threads)) );
    ]

let op_of_json j =
  let ( let* ) = Result.bind in
  let int k = Jsonx.req "op" Jsonx.int k j in
  let mo () = Jsonx.req "op" (Jsonx.enum "memory order" Memorder.of_string) "mo" j in
  let* tag = Jsonx.req "op" Jsonx.string "k" j in
  match tag with
  | "load" ->
    let* loc = int "loc" in
    let* mo = mo () in
    Ok (Load { loc; mo })
  | "store" ->
    let* loc = int "loc" in
    let* mo = mo () in
    let* value = int "value" in
    Ok (Store { loc; mo; value })
  | "add" ->
    let* loc = int "loc" in
    let* mo = mo () in
    let* delta = int "delta" in
    Ok (Add { loc; mo; delta })
  | "cas" ->
    let* loc = int "loc" in
    let* mo = mo () in
    let* expected = int "expected" in
    let* desired = int "desired" in
    Ok (Cas { loc; mo; expected; desired })
  | "xchg" ->
    let* loc = int "loc" in
    let* mo = mo () in
    let* value = int "value" in
    Ok (Xchg { loc; mo; value })
  | "fence" ->
    let* mo = mo () in
    Ok (Fence mo)
  | "na_read" ->
    let* na = int "na" in
    Ok (Na_read { na })
  | "na_write" ->
    let* na = int "na" in
    let* value = int "value" in
    Ok (Na_write { na; value })
  | "reuse_load" ->
    let* loc = int "loc" in
    Ok (Reuse_load { loc })
  | "reuse_store" ->
    let* loc = int "loc" in
    let* value = int "value" in
    Ok (Reuse_store { loc; value })
  | "lock" ->
    let* m = int "m" in
    Ok (Lock { m })
  | "unlock" ->
    let* m = int "m" in
    Ok (Unlock { m })
  | "yield" -> Ok Yield
  | t -> Error (Printf.sprintf "op: unknown tag %S" t)

let program_of_json j =
  let ( let* ) = Result.bind in
  let field ty k = Jsonx.req "program" ty k j in
  let* p_seed = field Jsonx.int64 "seed" in
  let* p_profile = field (Jsonx.enum "profile" profile_of_string) "profile" in
  let* p_atomic_locs = field Jsonx.int "atomic_locs" in
  let* p_na_locs = field Jsonx.int "na_locs" in
  let* p_mutexes = field Jsonx.int "mutexes" in
  let* threads = field (Jsonx.list_of Jsonx.list) "threads" in
  let* threads =
    Jsonx.map_result
      (fun ops -> Result.map Array.of_list (Jsonx.map_result op_of_json ops))
      threads
  in
  let p =
    { p_seed; p_profile; p_atomic_locs; p_na_locs; p_mutexes;
      p_threads = Array.of_list threads }
  in
  let* () = validate p in
  Ok p
