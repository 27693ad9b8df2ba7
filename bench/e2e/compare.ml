(* hem_bench compare OLD.json... --vs NEW.json...

   Applies the end-to-end bounds of ./BENCHMARK.json workload by
   workload.  Each side's value is the median over its result files; the
   spread is the larger of the two sides' interquartile range over
   median.  A metric is "worse" or "better" when its median moved by
   more than the bound in that direction, "unresolved" when the spread
   exceeds the bound (unless every new run beats every old one) or a
   result file lacks it, and "same" otherwise.  Fail ratios are printed
   next to the metrics.  Exits 1 when any metric is worse or unresolved,
   or more operations failed. *)

module Json = Explore.Wire.Json

let die fmt =
  Printf.ksprintf (fun msg -> prerr_endline ("hem_bench: " ^ msg); exit 2) fmt

let read_json path =
  match Timing.read_file path with
  | None -> die "cannot read %s" path
  | Some s -> ( match Json.of_string s with Ok j -> j | Error e -> die "%s: %s" path e)

let member path j = List.fold_left (fun j k -> Option.bind j (Json.member k)) (Some j) path

let number = function
  | Some (Json.Int n) -> Some (float n)
  | Some (Json.Float f) -> Some f
  | _ -> None

let run_seconds ~root =
  match Timing.read_file (Filename.concat root "BENCHMARK.json") with
  | None -> 20.0
  | Some s -> (
    match Json.of_string s with
    | Ok j -> Option.value (number (Json.member "run_seconds" j)) ~default:20.0
    | Error _ -> 20.0)

(* Quartiles as Python's statistics.quantiles(values, n=4) computes them
   (the "exclusive" method). *)
let quartiles xs =
  let d = Timing.sorted xs in
  let ld = Array.length d in
  List.map
    (fun i ->
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((d.(j - 1) *. float (4 - delta)) +. (d.(j) *. float delta)) /. 4.0)
    [ 1; 2; 3 ]

let spread xs =
  match xs with
  | [] | [ _ ] -> 0.0
  | _ -> (
    match quartiles xs with
    | [ q1; _; q3 ] -> (q3 -. q1) /. Timing.median xs
    | _ -> 0.0)

type bound = {
  name : string;
  lower_is_better : bool;
  bound : float;
}

let bounds path =
  match member [ "end_to_end" ] (read_json path) with
  | Some (Json.Arr ms) ->
    List.map
      (fun m ->
        match
          Json.member "name" m, Json.member "better" m, number (Json.member "bound" m)
        with
        | Some (Json.Str name), Some (Json.Str better), Some bound ->
          { name; lower_is_better = better = "lower"; bound }
        | _ -> die "%s: malformed end_to_end entry" path)
      ms
  | _ -> die "%s: no end_to_end list" path

let workload_names files =
  List.sort_uniq compare
    (List.concat_map
       (fun j ->
         match member [ "workloads" ] j with
         | Some (Json.Obj ws) ->
           List.filter_map
             (fun (w, _) -> if String.ends_with ~suffix:"+trace" w then None else Some w)
             ws
         | _ -> [])
       files)

(* The metric's value in every file that ran workload [w], or [None] if
   no file ran it or one of them lacks the metric. *)
let values files w metric =
  match List.filter (fun j -> member [ "workloads"; w ] j <> None) files with
  | [] -> None
  | files ->
    let vs =
      List.map
        (fun j -> number (member [ "workloads"; w; "end_to_end"; metric; "value" ] j))
        files
    in
    if List.mem None vs then None else Some (List.filter_map Fun.id vs)

let fail_ratio files w =
  let total key =
    List.fold_left
      (fun n j ->
        n +. Option.value (number (member [ "workloads"; w; key ] j)) ~default:0.0)
      0.0 files
  in
  total "failed" /. Float.max 1.0 (total "attempted")

let run args =
  let rec split ~vs old nw = function
    | [] -> List.rev old, List.rev nw
    | "--vs" :: rest -> split ~vs:true old nw rest
    | file :: rest ->
      if vs then split ~vs old (file :: nw) rest else split ~vs (file :: old) nw rest
  in
  let old, nw =
    match split ~vs:false [] [] args with
    | [ a; b ], [] -> [ a ], [ b ]
    | ([], _ | _, []) -> die "usage: compare OLD.json... --vs NEW.json..."
    | sides -> sides
  in
  let bounds = bounds "BENCHMARK.json" in
  let old = List.map read_json old and nw = List.map read_json nw in
  let bad = ref 0 in
  Printf.printf "%-13s %-16s %12s %12s %8s %7s %7s  %s\n" "workload" "metric" "old" "new"
    "change" "spread" "bound" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun b ->
          match values old w b.name, values nw w b.name with
          | None, _ | _, None ->
            incr bad;
            Printf.printf "%-13s %-16s %12s %12s %8s %7s %6.1f%%  unresolved (missing)\n" w
              b.name "" "" "" "" (100.0 *. b.bound)
          | Some a, Some n ->
            let ma = Timing.median a and mn = Timing.median n in
            let change = (mn -. ma) /. ma in
            let worse_by = if b.lower_is_better then change else -.change in
            let beats x y = if b.lower_is_better then x < y else x > y in
            let every_new_better = List.for_all (fun y -> List.for_all (beats y) a) n in
            let sp = Float.max (spread a) (spread n) in
            let verdict =
              if sp > b.bound && not every_new_better then "unresolved"
              else if worse_by > b.bound then "worse"
              else if worse_by < -.b.bound || (sp > b.bound && every_new_better)
              then "better"
              else "same"
            in
            if verdict = "worse" || verdict = "unresolved" then incr bad;
            Printf.printf "%-13s %-16s %12.6g %12.6g %+7.1f%% %6.1f%% %6.1f%%  %s\n" w
              b.name ma mn
              (100.0 *. change) (100.0 *. sp) (100.0 *. b.bound) verdict)
        bounds;
      let fo = fail_ratio old w and fn = fail_ratio nw w in
      if fn > fo then incr bad;
      Printf.printf "%-13s %-16s %12.6g %12.6g\n" w "fail_ratio" fo fn)
    (workload_names (old @ nw));
  if !bad > 0 then exit 1
