let sample_cap = 4096

type counter = { mutable count : int }
type gauge = { mutable g_value : float }

type histo = {
  mutable h_count : int;
  mutable h_total : float;
  mutable h_min : float;
  mutable h_max : float;
  samples : float array;  (** sliding window of the last [sample_cap] *)
  mutable s_len : int;
  mutable s_next : int;
}

type t = {
  on : bool;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histos : (string, histo) Hashtbl.t;
}

let make on =
  {
    on;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histos = Hashtbl.create 16;
  }

let create () = make true
let null = make false
let enabled t = t.on

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { count = 0 } in
    Hashtbl.add t.counters name c;
    c

let incr t ?(by = 1) name =
  if t.on then begin
    let c = counter t name in
    c.count <- c.count + by
  end

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_value = nan } in
    Hashtbl.add t.gauges name g;
    g

let set_gauge t name v = if t.on then (gauge t name).g_value <- v

let max_gauge t name v =
  if t.on then begin
    let g = gauge t name in
    if Float.is_nan g.g_value || v > g.g_value then g.g_value <- v
  end

let histo t name =
  match Hashtbl.find_opt t.histos name with
  | Some h -> h
  | None ->
    let h =
      {
        h_count = 0;
        h_total = 0.0;
        h_min = infinity;
        h_max = neg_infinity;
        samples = Array.make sample_cap 0.0;
        s_len = 0;
        s_next = 0;
      }
    in
    Hashtbl.add t.histos name h;
    h

let observe t name v =
  if t.on then begin
    let h = histo t name in
    h.h_count <- h.h_count + 1;
    h.h_total <- h.h_total +. v;
    if v < h.h_min then h.h_min <- v;
    if v > h.h_max then h.h_max <- v;
    h.samples.(h.s_next) <- v;
    h.s_next <- (h.s_next + 1) mod sample_cap;
    if h.s_len < sample_cap then h.s_len <- h.s_len + 1
  end

(* ------------------------------------------------------------------ *)
(* Readout *)

let counter_value t name =
  match Hashtbl.find_opt t.counters name with Some c -> c.count | None -> 0

let gauge_value t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g when not (Float.is_nan g.g_value) -> Some g.g_value
  | _ -> None

type snapshot = {
  name : string;
  count : int;
  total : float;
  mean : float;
  min : float;
  max : float;
  p50 : float;
  p90 : float;
  p99 : float;
}

let snapshot_of_histo name h =
  let xs = Array.to_list (Array.sub h.samples 0 h.s_len) in
  {
    name;
    count = h.h_count;
    total = h.h_total;
    mean = (if h.h_count = 0 then nan else h.h_total /. float_of_int h.h_count);
    min = (if h.h_count = 0 then nan else h.h_min);
    max = (if h.h_count = 0 then nan else h.h_max);
    p50 = Stats.percentile 50.0 xs;
    p90 = Stats.percentile 90.0 xs;
    p99 = Stats.percentile 99.0 xs;
  }

let histo_snapshot t name =
  Option.map (snapshot_of_histo name) (Hashtbl.find_opt t.histos name)

let sorted_bindings tbl =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare (a : string) b)

let counters t =
  List.map
    (fun (k, (c : counter)) -> (k, c.count))
    (sorted_bindings t.counters)

let gauges t =
  List.filter_map
    (fun (k, g) ->
      if Float.is_nan g.g_value then None else Some (k, g.g_value))
    (sorted_bindings t.gauges)

let histo_snapshots t =
  List.map (fun (k, h) -> snapshot_of_histo k h) (sorted_bindings t.histos)

let reset t =
  Hashtbl.reset t.counters;
  Hashtbl.reset t.gauges;
  Hashtbl.reset t.histos

let absorb ~into src =
  if into.on then begin
    Hashtbl.iter
      (fun name (c : counter) -> incr into ~by:c.count name)
      src.counters;
    Hashtbl.iter
      (fun name g ->
        if not (Float.is_nan g.g_value) then max_gauge into name g.g_value)
      src.gauges;
    Hashtbl.iter
      (fun name (h : histo) ->
        let d = histo into name in
        d.h_count <- d.h_count + h.h_count;
        d.h_total <- d.h_total +. h.h_total;
        if h.h_min < d.h_min then d.h_min <- h.h_min;
        if h.h_max > d.h_max then d.h_max <- h.h_max;
        (* append [h]'s window to [d]'s, oldest first, keeping the
           sliding-window invariant (the last [sample_cap] survive) *)
        let start = if h.s_len < sample_cap then 0 else h.s_next in
        for i = 0 to h.s_len - 1 do
          d.samples.(d.s_next) <- h.samples.((start + i) mod sample_cap);
          d.s_next <- (d.s_next + 1) mod sample_cap;
          if d.s_len < sample_cap then d.s_len <- d.s_len + 1
        done)
      src.histos
  end

let snapshot_to_json s =
  Jsonx.Obj
    [
      ("count", Jsonx.Int s.count);
      ("total", Jsonx.Float s.total);
      ("mean", Jsonx.Float s.mean);
      ("min", Jsonx.Float s.min);
      ("max", Jsonx.Float s.max);
      ("p50", Jsonx.Float s.p50);
      ("p90", Jsonx.Float s.p90);
      ("p99", Jsonx.Float s.p99);
    ]

let to_json t =
  Jsonx.Obj
    [
      ( "counters",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Int v)) (counters t)) );
      ( "gauges",
        Jsonx.Obj (List.map (fun (k, v) -> (k, Jsonx.Float v)) (gauges t)) );
      ( "histograms",
        Jsonx.Obj
          (List.map
             (fun s -> (s.name, snapshot_to_json s))
             (histo_snapshots t)) );
    ]

let pp fmt t =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun (k, v) -> Format.fprintf fmt "%-32s %12d@ " k v)
    (counters t);
  List.iter
    (fun (k, v) -> Format.fprintf fmt "%-32s %12.2f@ " k v)
    (gauges t);
  List.iter
    (fun s ->
      Format.fprintf fmt "%-32s n=%d mean=%.3g p50=%.3g p90=%.3g p99=%.3g@ "
        s.name s.count s.mean s.p50 s.p90 s.p99)
    (histo_snapshots t);
  Format.fprintf fmt "@]"
