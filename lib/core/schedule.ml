type t =
  | Controlled_random of { batch_stores : bool }
  | Bursty of { mean_burst : int }
  | Priority of { change_points : int }
  | Round_robin

type state = {
  mutable last_tid : int;
  mutable last_was_store : bool;
  mutable burst_left : int;
  mutable priorities : float array;  (** higher runs first *)
  mutable steps : int;
}

let make_state () =
  {
    last_tid = -1;
    last_was_store = false;
    burst_left = 0;
    priorities = [||];
    steps = 0;
  }

let[@inline] note_executed st ~tid ~was_rlx_or_rel_store =
  st.last_tid <- tid;
  st.last_was_store <- was_rlx_or_rel_store

(* The array variants below read [enabled.(0 .. n-1)], expected in
   ascending tid order (as the engine builds them), and draw from the RNG
   in exactly the order the original list-based code did — the engine's
   fixed-seed determinism contract depends on that. *)

let[@inline] arr_mem x (arr : int array) n =
  let i = ref 0 in
  while !i < n && Array.unsafe_get arr !i <> x do
    incr i
  done;
  !i < n

let[@inline] random_pick_n rng (enabled : int array) n =
  if n = 1 then enabled.(0) else enabled.(Rng.int rng n)

let ensure_priorities st rng n =
  let len = Array.length st.priorities in
  if n > len then begin
    let p = Array.init (max n (2 * max 4 len)) (fun _ -> Rng.float rng) in
    Array.blit st.priorities 0 p 0 len;
    st.priorities <- p
  end

(* The policies but the default one, out of line: the engine's scheduling
   loop inlines [pick_n]. *)
let[@inline never] pick_other t st rng ~(enabled : int array) ~n =
  match t with
  | Controlled_random _ -> assert false (* [pick_n] handles it *)
  | Bursty { mean_burst } ->
    if st.burst_left > 0 && arr_mem st.last_tid enabled n then begin
      st.burst_left <- st.burst_left - 1;
      st.last_tid
    end
    else begin
      let tid = random_pick_n rng enabled n in
      st.burst_left <- Rng.geometric rng mean_burst - 1;
      tid
    end
  | Priority { change_points } ->
    let top = ref 0 in
    for i = 0 to n - 1 do
      if enabled.(i) > !top then top := enabled.(i)
    done;
    ensure_priorities st rng (!top + 1);
    (* a change point demotes the thread that just ran *)
    if
      st.last_tid >= 0
      && change_points > 0
      (* on average [change_points] demotions per ~1000 decisions *)
      && Rng.int rng 1000 < change_points
    then
      st.priorities.(st.last_tid) <-
        st.priorities.(st.last_tid) -. 1.0;
    let best = ref enabled.(0) in
    for i = 1 to n - 1 do
      let tid = enabled.(i) in
      if st.priorities.(tid) > st.priorities.(!best) then best := tid
    done;
    !best
  | Round_robin ->
    let chosen = ref (-1) in
    (try
       for i = 0 to n - 1 do
         if enabled.(i) > st.last_tid then begin
           chosen := enabled.(i);
           raise Exit
         end
       done
     with Exit -> ());
    if !chosen >= 0 then !chosen else enabled.(0)

let[@inline never] no_enabled () =
  invalid_arg "Schedule.pick: no enabled thread"

let[@inline] pick_n t st rng ~(enabled : int array) ~n ~pending_is_rlx_store =
  if n <= 0 then no_enabled ();
  st.steps <- st.steps + 1;
  match t with
  | Controlled_random { batch_stores } ->
    if
      batch_stores && st.last_was_store
      && arr_mem st.last_tid enabled n
      && pending_is_rlx_store st.last_tid
    then st.last_tid
    else random_pick_n rng enabled n
  | Bursty _ | Priority _ | Round_robin -> pick_other t st rng ~enabled ~n

let pick t st rng ~enabled ~pending_is_rlx_store =
  match enabled with
  | [] -> invalid_arg "Schedule.pick: no enabled thread"
  | _ ->
    let arr = Array.of_list enabled in
    pick_n t st rng ~enabled:arr ~n:(Array.length arr) ~pending_is_rlx_store

let pp fmt = function
  | Controlled_random { batch_stores } ->
    Format.fprintf fmt "controlled-random%s"
      (if batch_stores then "+store-batching" else "")
  | Bursty { mean_burst } -> Format.fprintf fmt "bursty(%d)" mean_burst
  | Priority { change_points } -> Format.fprintf fmt "pct(%d)" change_points
  | Round_robin -> Format.pp_print_string fmt "round-robin"
