let incr ?(by = 1) name =
  if Atomic.get Registry.enabled then
    Registry.counter_add (Registry.my_buf ()) name by

let set_gauge name v =
  if Atomic.get Registry.enabled then
    Registry.gauge_set (Registry.my_buf ()) name v

let register_histogram = Registry.register_histogram

let observe name v =
  if Atomic.get Registry.enabled then
    Registry.observe (Registry.my_buf ()) name v

let bucket = Registry.bucket_index

let observe_counts name counts =
  if Atomic.get Registry.enabled then
    Registry.observe_counts (Registry.my_buf ()) name counts

let counter_value = Registry.counter_value
