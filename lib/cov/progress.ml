(* the reader's record comes first, so the writer's [state] fields win
   where a field name is shared *)
type record = {
  final : bool;
  done_ : int;
  total : int;
  novel : int;
  findings : int;
  certified_ops : int;
  retired_prefix_ops : int;
  elapsed_s : float;
  exec_per_s : float;
  gc_top_heap_words : int;
  gc_heap_words : int;
}

type state = {
  out : out_channel;
  interval_ns : int;
  total : int;
  started_ns : int;
  done_ : int Atomic.t;
  novel : int Atomic.t;
  findings : int Atomic.t;
  certified_ops : int Atomic.t;
  retired_prefix_ops : int Atomic.t;
  next_due_ns : int Atomic.t;
  finished : bool Atomic.t;
  emit_lock : Mutex.t;
}

type t = state option

let null = None
let enabled t = t <> None

let create ~out ~interval_ns ~total =
  let now = Profile.now_ns () in
  Some
    {
      out;
      interval_ns;
      total;
      started_ns = now;
      done_ = Atomic.make 0;
      novel = Atomic.make 0;
      findings = Atomic.make 0;
      certified_ops = Atomic.make 0;
      retired_prefix_ops = Atomic.make 0;
      next_due_ns = Atomic.make (now + interval_ns);
      finished = Atomic.make false;
      emit_lock = Mutex.create ();
    }

let schema = "c11progress-v1"

let record s kind ~done_ ~novel ~findings ~now =
  let elapsed_ns = max 1 (now - s.started_ns) in
  let elapsed_s = float_of_int elapsed_ns /. 1e9 in
  let q = Gc.quick_stat () in
  let certified = Atomic.get s.certified_ops in
  let retired = Atomic.get s.retired_prefix_ops in
  (* The streaming-certification counters appear only once the streaming
     certifier has consumed at least one action, so certify-off campaigns
     emit records byte-identical to earlier schema versions. *)
  let stream_fields =
    if certified > 0 || retired > 0 then
      [
        ("certified_ops", Jsonx.Int certified);
        ("retired_prefix_ops", Jsonx.Int retired);
      ]
    else []
  in
  Jsonx.Obj
    ([
       ("schema", Jsonx.String schema);
       ("kind", Jsonx.String kind);
       ("done", Jsonx.Int done_);
       ("total", Jsonx.Int s.total);
       ("novel", Jsonx.Int novel);
       ("findings", Jsonx.Int findings);
     ]
    @ stream_fields
    @ [
        ("elapsed_s", Jsonx.Float elapsed_s);
        ("exec_per_s", Jsonx.Float (float_of_int done_ /. elapsed_s));
        ("gc_top_heap_words", Jsonx.Int q.Gc.top_heap_words);
        ("gc_heap_words", Jsonx.Int q.Gc.heap_words);
      ])

let emit s kind ~now =
  Mutex.lock s.emit_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock s.emit_lock)
    (fun () ->
      let j =
        record s kind ~done_:(Atomic.get s.done_) ~novel:(Atomic.get s.novel)
          ~findings:(Atomic.get s.findings) ~now
      in
      output_string s.out (Jsonx.to_string j);
      output_char s.out '\n';
      flush s.out)

let account_certified t ~certified ~retired =
  match t with
  | None -> ()
  | Some s ->
    if certified > 0 then ignore (Atomic.fetch_and_add s.certified_ops certified);
    if retired > 0 then
      ignore (Atomic.fetch_and_add s.retired_prefix_ops retired)

let tick t ~novel ~finding =
  match t with
  | None -> ()
  | Some s ->
    Atomic.incr s.done_;
    if novel then Atomic.incr s.novel;
    if finding then Atomic.incr s.findings;
    let due = Atomic.get s.next_due_ns in
    let now = Profile.now_ns () in
    if
      now >= due
      && Atomic.compare_and_set s.next_due_ns due (now + s.interval_ns)
    then emit s "heartbeat" ~now

let observe t ~done_ ~novel ~findings ~certified_ops ~retired_prefix_ops =
  match t with
  | None -> ()
  | Some s ->
    Atomic.set s.done_ done_;
    Atomic.set s.novel novel;
    Atomic.set s.findings findings;
    Atomic.set s.certified_ops certified_ops;
    Atomic.set s.retired_prefix_ops retired_prefix_ops;
    let due = Atomic.get s.next_due_ns in
    let now = Profile.now_ns () in
    if
      now >= due
      && Atomic.compare_and_set s.next_due_ns due (now + s.interval_ns)
    then emit s "heartbeat" ~now

let finish ?novel ?findings t =
  match t with
  | None -> ()
  | Some s ->
    if Atomic.compare_and_set s.finished false true then begin
      (match novel with Some n -> Atomic.set s.novel n | None -> ());
      (match findings with Some n -> Atomic.set s.findings n | None -> ());
      emit s "final" ~now:(Profile.now_ns ())
    end

let record_of_json j : (record, string) result =
  let ( let* ) = Result.bind in
  let field ty k = Jsonx.req schema ty k j in
  let count k = Result.map (Option.value ~default:0) (Jsonx.opt schema Jsonx.int k j) in
  let kind = function "heartbeat" -> Some false | "final" -> Some true | _ -> None in
  let* () = field (Jsonx.literal schema) "schema" in
  let* final = field (Jsonx.enum "kind" kind) "kind" in
  let* done_ = field Jsonx.int "done" in
  let* total = field Jsonx.int "total" in
  let* novel = field Jsonx.int "novel" in
  let* findings = field Jsonx.int "findings" in
  let* certified_ops = count "certified_ops" in
  let* retired_prefix_ops = count "retired_prefix_ops" in
  let* elapsed_s = field Jsonx.float "elapsed_s" in
  let* exec_per_s = field Jsonx.float "exec_per_s" in
  let* gc_top_heap_words = field Jsonx.int "gc_top_heap_words" in
  let* gc_heap_words = field Jsonx.int "gc_heap_words" in
  Ok
    { final; done_; total; novel; findings; certified_ops; retired_prefix_ops;
      elapsed_s; exec_per_s; gc_top_heap_words; gc_heap_words }
