(* Clock, sample statistics and process probes.  Every timing in the
   benchmark comes from CLOCK_MONOTONIC in nanoseconds. *)

let now_ns () = Monotonic_clock.now ()

let ms_since t0 = Int64.to_float (Int64.sub (now_ns ()) t0) /. 1e6

let time_ms f =
  let t0 = now_ns () in
  let r = f () in
  r, ms_since t0

(* Nearest-rank percentile, [p] in [0, 1]. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else sorted.(max 0 (min (n - 1) (int_of_float (ceil (p *. float n)) - 1)))

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median xs = percentile (sorted xs) 0.5

let mean = function
  | [] -> nan
  | xs -> List.fold_left ( +. ) 0.0 xs /. float (List.length xs)

(* A metric value as reported: [samples] is how many measurements the
   value summarises (1 for a count or a ratio of totals). *)
type metric = {
  name : string;
  unit : string;
  value : float;
  samples : int;
}

let metric ?(samples = 1) name unit value = { name; unit; value; samples }

(* Median and p90 of a sample list under one name stem. *)
let p50_p90 stem unit xs =
  let a = sorted xs in
  let n = Array.length a in
  [ metric ~samples:n (stem ^ "_p50") unit (percentile a 0.5);
    metric ~samples:n (stem ^ "_p90") unit (percentile a 0.9) ]

(* Process probes from /proc: peak resident set and CPU time. *)

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Some s
  | exception Sys_error _ -> None

let vm_hwm_mb pid =
  match read_file (Printf.sprintf "/proc/%s/status" pid) with
  | None -> 0.0
  | Some s ->
    List.fold_left
      (fun acc line ->
        match String.split_on_char ':' line with
        | [ "VmHWM"; v ] ->
          Scanf.sscanf (String.trim v) "%d kB" (fun kb -> float kb /. 1024.0)
        | _ -> acc)
      0.0
      (String.split_on_char '\n' s)

(* utime + stime of a process in ms, from its stat line: the fields after
   the parenthesised command name start with the state (field 3), so
   utime and stime (fields 14 and 15) sit at offsets 11 and 12; both
   count 10 ms clock ticks. *)
let cpu_ms_of_pid pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> 0.0
  | Some s ->
    let after = String.rindex s ')' + 2 in
    let fields =
      Array.of_list
        (String.split_on_char ' ' (String.sub s after (String.length s - after)))
    in
    (float_of_string fields.(11) +. float_of_string fields.(12)) *. 10.0

let self_cpu_ms () =
  let t = Unix.times () in
  (t.Unix.tms_utime +. t.Unix.tms_stime) *. 1e3
