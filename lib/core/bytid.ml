let[@inline] search (keys : int array) n key =
  let lo = ref 0 and hi = ref n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if Array.unsafe_get keys mid < key then lo := mid + 1 else hi := mid
  done;
  !lo
