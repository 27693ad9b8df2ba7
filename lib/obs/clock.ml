let now_ns () = Monotonic_clock.now ()

let now_us () = Int64.to_float (now_ns ()) /. 1e3
