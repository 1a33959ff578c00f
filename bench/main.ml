(* Benchmark harness entry point.

   Regenerates every table and figure of the paper's evaluation:

     dune exec bench/main.exe                 # everything (full run)
     dune exec bench/main.exe -- table2 fig4  # selected experiments
     dune exec bench/main.exe -- --quick      # smaller iteration counts
     dune exec bench/main.exe -- --json F     # also dump metrics as JSON
     dune exec bench/main.exe -- --jobs N perf  # shard perf campaigns

   Experiment ids: fig4 fig14 sec8_1 table1 fig15 table2 fig16 table3
   table4 prune sched perf. *)

let experiments : (string * (unit -> unit)) list =
  [
    ("fig4", Experiments.fig4);
    ("fig14", Fig14.run);
    ("sec8_1", Experiments.sec8_1);
    ("table1", Experiments.table1);
    ("fig15", Experiments.fig15);
    ("table2", Experiments.table2);
    ("fig16", Experiments.fig16);
    ("table3", Experiments.table3);
    ("table4", Experiments.table4);
    ("prune", Experiments.prune);
    ("sched", Experiments.sched);
    ("perf", Perfsuite.run);
  ]

let usage () =
  Printf.printf
    "usage: main.exe [--quick] [--json FILE] [--jobs N] [experiment ...]\n\
     experiments:\n";
  List.iter (fun (n, _) -> Printf.printf "  %s\n" n) experiments

(* Extract "--json FILE" from the argument list, returning the file (if
   any) and the remaining arguments. *)
let rec take_json = function
  | [] -> (None, [])
  | "--json" :: file :: rest ->
    let _, rest = take_json rest in
    (Some file, rest)
  | a :: rest ->
    let json, rest = take_json rest in
    (json, a :: rest)

(* Same shape for "--jobs N" (perf-suite campaign sharding). *)
let rec take_jobs = function
  | [] -> (None, [])
  | "--jobs" :: n :: rest ->
    let _, rest = take_jobs rest in
    (int_of_string_opt n, rest)
  | a :: rest ->
    let jobs, rest = take_jobs rest in
    (jobs, a :: rest)

let write_json ~quick ~todo path =
  let perf =
    match !Perfsuite.last_doc with
    | Some doc -> [ ("perf", doc) ]
    | None -> []
  in
  let doc =
    Jsonx.Obj
      ([
         ("schema", Jsonx.String "c11obs-bench-v1");
         ("quick", Jsonx.Bool quick);
         ( "experiments",
           Jsonx.List (List.map (fun (n, _) -> Jsonx.String n) todo) );
         ("metrics", Metrics.to_json Bench_util.metrics);
       ]
      @ perf)
  in
  let write oc =
    output_string oc (Jsonx.to_pretty_string doc);
    output_char oc '\n'
  in
  if path = "-" then write stdout
  else begin
    let oc = open_out path in
    Fun.protect ~finally:(fun () -> close_out oc) (fun () -> write oc)
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json, args = take_json args in
  let jobs, args = take_jobs args in
  Option.iter
    (fun j -> Perfsuite.jobs := if j <= 0 then Par.available_jobs () else j)
    jobs;
  let quick = List.mem "--quick" args in
  let selected =
    List.filter (fun a -> not (String.length a > 1 && a.[0] = '-')) args
  in
  if quick then begin
    Experiments.table2_iters := 150;
    Experiments.sec81_iters := 300;
    Experiments.table1_runs := 5;
    Bench_util.quota := 0.2;
    Perfsuite.quick ()
  end;
  if List.mem "--help" args then usage ()
  else begin
    let todo =
      match selected with
      | [] -> experiments
      | names ->
        List.map
          (fun n ->
            match List.assoc_opt n experiments with
            | Some f -> (n, f)
            | None ->
              usage ();
              failwith ("unknown experiment " ^ n))
          names
    in
    Printf.printf
      "C11Tester reproduction benchmark harness (%d experiments%s)\n"
      (List.length todo)
      (if quick then ", quick mode" else "");
    List.iter (fun (_, f) -> f ()) todo;
    Option.iter (write_json ~quick ~todo) json
  end
