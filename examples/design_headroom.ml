(* Design-space exploration with sensitivity analysis: how much can each
   receiving task of the paper's system grow, and how fast may the
   pending source run, before the design stops being schedulable — and
   how much of that headroom exists only thanks to the hierarchical
   event models.

   Run with: dune exec examples/design_headroom.exe *)

module Interval = Timebase.Interval
module Engine = Cpa_system.Engine
module Sensitivity = Explore.Sensitivity
module Paper = Scenarios.Paper_system

let headroom mode task =
  match
    Sensitivity.max_cet_scale ~mode ~build:(fun () -> Paper.spec ()) ~task ()
  with
  | Some pct -> Printf.sprintf "%d%%" pct
  | None -> "none"

let () =
  Format.printf "Execution-time headroom per task (largest schedulable CET):@.";
  Format.printf "  %-6s %14s %14s@." "task" "flat mode" "hierarchical";
  List.iter
    (fun task ->
      Format.printf "  %-6s %14s %14s@." task
        (headroom Engine.Flat_sem task)
        (headroom Engine.Hierarchical task))
    Paper.cpu_tasks;

  (* fastest sustainable pending source *)
  let rebuild period = Paper.spec ~s3_period:period () in
  (match
     Sensitivity.min_source_period ~mode:Engine.Hierarchical ~rebuild ~lo:1
       ~hi:1000 ()
   with
   | Some p -> Format.printf "@.Fastest sustainable S3 period (HEM): %d@." p
   | None -> Format.printf "@.S3 unsustainable at any period <= 1000@.");
  (match
     Sensitivity.min_source_period ~mode:Engine.Flat_sem ~rebuild ~lo:1
       ~hi:1000 ()
   with
   | Some p -> Format.printf "Fastest sustainable S3 period (flat): %d@." p
   | None -> Format.printf "S3 unsustainable at any period <= 1000 (flat)@.");

  (* queue dimensioning for the frames *)
  Format.printf "@.Transmit queue bounds (see bench 'buffers' for details):@.";
  let hem =
    match Engine.analyse ~mode:Engine.Hierarchical (Paper.spec ()) with
    | Ok r -> r
    | Error e -> failwith (Guard.Error.to_string e)
  in
  List.iter
    (fun frame ->
      match Engine.response hem frame with
      | Some r -> Format.printf "  %-4s R = %a@." frame Interval.pp r
      | None -> Format.printf "  %-4s unbounded@." frame)
    Paper.frames
