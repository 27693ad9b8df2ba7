module Metrics = Obs.Metrics

type t = {
  deconv_rows : int;
  deconv_candidates : int;
  delay_scan_steps : int;
  eta_walk_steps : int;
}

let deconv_rows = Metrics.counter "rtc.deconv_rows"
let deconv_candidates = Metrics.counter "rtc.deconv_candidates"
let delay_scan_steps = Metrics.counter "rtc.delay_scan_steps"
let eta_walk_steps = Metrics.counter "rtc.eta_walk_steps"

let read scope =
  {
    deconv_rows = Metrics.read scope deconv_rows;
    deconv_candidates = Metrics.read scope deconv_candidates;
    delay_scan_steps = Metrics.read scope delay_scan_steps;
    eta_walk_steps = Metrics.read scope eta_walk_steps;
  }
