type t = {
  c_dir : string;
  mutable c_hits : int;
  mutable c_misses : int;
  mutable c_stores : int;
  mutable c_hit_bytes : int;
  mutable c_store_bytes : int;
}

type stats = {
  hits : int;
  misses : int;
  stores : int;
  hit_bytes : int;
  store_bytes : int;
}

let magic = "c11svc-cache-v2"

let default_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "c11test"
  | _ ->
    let home = Option.value ~default:"." (Sys.getenv_opt "HOME") in
    Filename.concat (Filename.concat home ".cache") "c11test"

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with
    | Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let open_dir dir =
  match
    mkdir_p dir;
    (* probe writability now: an unwritable cache is a usage error the
       caller reports before the campaign starts, not after *)
    let probe = Filename.concat dir (Printf.sprintf ".probe.%d" (Unix.getpid ())) in
    let oc = open_out probe in
    close_out oc;
    Sys.remove probe
  with
  | () ->
    Ok
      {
        c_dir = dir;
        c_hits = 0;
        c_misses = 0;
        c_stores = 0;
        c_hit_bytes = 0;
        c_store_bytes = 0;
      }
  | exception Sys_error msg -> Error msg
  | exception Unix.Unix_error (e, _, arg) ->
    Error (Printf.sprintf "%s: %s" arg (Unix.error_message e))

let dir t = t.c_dir

let path_of t ~key =
  (* two-hex-digit fan directory keeps any one directory small *)
  let fan = String.sub key 0 2 in
  let rest = String.sub key 2 (String.length key - 2) in
  Filename.concat (Filename.concat t.c_dir fan) (rest ^ ".shard")

let lookup (type a) t ~key : a option =
  let path = path_of t ~key in
  let read () =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        if input_line ic <> magic then failwith "bad magic";
        if input_line ic <> key then failwith "key mismatch";
        let digest = input_line ic in
        let len = in_channel_length ic - pos_in ic in
        let body = really_input_string ic len in
        (* a flipped byte can keep the Marshal framing intact and replay
           a wrong value, so the body is checked before it is decoded *)
        if Digest.to_hex (Digest.string body) <> digest then
          failwith "body digest mismatch";
        ((Marshal.from_string body 0 : a), len))
  in
  match read () with
  | v, len ->
    t.c_hits <- t.c_hits + 1;
    t.c_hit_bytes <- t.c_hit_bytes + len;
    Some v
  | exception Sys_error _ ->
    t.c_misses <- t.c_misses + 1;
    None
  | exception e ->
    (* corrupt / truncated / version-skewed entry: a miss, reported, and
       removed so the slot heals on the next store *)
    let reason =
      match e with
      | Failure msg -> msg
      | End_of_file -> "truncated"
      | _ -> Printexc.to_string e
    in
    Printf.eprintf "c11test: cache: dropping corrupt entry %s (%s)\n%!" path
      reason;
    (try Sys.remove path with Sys_error _ -> ());
    t.c_misses <- t.c_misses + 1;
    None

let store t ~key v =
  let path = path_of t ~key in
  mkdir_p (Filename.dirname path);
  let tmp =
    Printf.sprintf "%s.tmp.%d.%d" path (Unix.getpid ()) t.c_stores
  in
  let body = Marshal.to_string v [] in
  let oc = open_out_bin tmp in
  (match
     output_string oc magic;
     output_char oc '\n';
     output_string oc key;
     output_char oc '\n';
     output_string oc (Digest.to_hex (Digest.string body));
     output_char oc '\n';
     output_string oc body;
     close_out oc
   with
  | () -> Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e);
  t.c_stores <- t.c_stores + 1;
  t.c_store_bytes <- t.c_store_bytes + String.length body

let stats t =
  {
    hits = t.c_hits;
    misses = t.c_misses;
    stores = t.c_stores;
    hit_bytes = t.c_hit_bytes;
    store_bytes = t.c_store_bytes;
  }

let stats_to_json s =
  Jsonx.Obj
    [
      ("hits", Jsonx.Int s.hits);
      ("misses", Jsonx.Int s.misses);
      ("stores", Jsonx.Int s.stores);
      ("hit_bytes", Jsonx.Int s.hit_bytes);
      ("store_bytes", Jsonx.Int s.store_bytes);
    ]
