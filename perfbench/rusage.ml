type t = { utime : float; stime : float; maxrss_kib : int }

external getrusage : int -> float * float * int = "perfbench_getrusage"

let get who =
  let utime, stime, maxrss_kib = getrusage who in
  { utime; stime; maxrss_kib }

let self () = get 0
let children () = get 1

let cpu_s r = r.utime +. r.stime

let cpu_total () = cpu_s (self ()) +. cpu_s (children ())

let peak_rss_mb () =
  float_of_int (Int.max (self ()).maxrss_kib (children ()).maxrss_kib) /. 1024.0
