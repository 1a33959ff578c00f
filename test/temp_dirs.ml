(* Fresh directories in the temp dir for the tests that keep a cache or
   a corpus on disk.  Every directory named here is removed, with its
   contents, when the test binary exits. *)

let made = ref []

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () = at_exit (fun () -> List.iter rm_rf !made)

(* [fresh prefix] names a directory unique to this process and call; it
   is not created. *)
let fresh =
  let n = ref 0 in
  fun prefix ->
    incr n;
    let d =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "%s_%d_%d" prefix (Unix.getpid ()) !n)
    in
    made := d :: !made;
    d
