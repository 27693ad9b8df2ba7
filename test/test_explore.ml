(* Tests for the design-space exploration subsystem: pool determinism
   and error propagation, single-flight cache statistics, content
   digests, layout enumeration, repack validity, driver determinism
   across job counts, and Pareto fronts. *)

module Interval = Timebase.Interval
module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine
module Pool = Explore.Pool
module Cache = Explore.Cache
module Space = Explore.Space
module Summary = Explore.Summary
module Driver = Explore.Driver
module Paper = Scenarios.Paper_system

(* ------------------------------------------------------------------ *)
(* Pool *)

let test_pool_order () =
  let expected = List.init 20 (fun i -> i * i) in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.map ~jobs (fun i -> i * i) 20))
    [ 1; 2; 4; 7 ]

let test_pool_empty () =
  Alcotest.(check (list int)) "n=0" [] (Pool.map ~jobs:3 (fun i -> i) 0)

let test_pool_smallest_error () =
  (* several indices fail; the re-raised exception is always the one of
     the smallest failing index, independent of scheduling *)
  for _ = 1 to 5 do
    match
      Pool.map ~jobs:4
        (fun i -> if i = 5 || i = 11 || i = 17 then failwith (string_of_int i))
        20
    with
    | _ -> Alcotest.fail "expected failure"
    | exception Failure msg -> Alcotest.(check string) "smallest index" "5" msg
  done

let test_pool_invalid () =
  let raises f =
    match f () with exception Invalid_argument _ -> true | _ -> false
  in
  Alcotest.(check bool) "jobs=0" true
    (raises (fun () -> Pool.map ~jobs:0 (fun i -> i) 3));
  Alcotest.(check bool) "n<0" true
    (raises (fun () -> Pool.map ~jobs:1 (fun i -> i) (-1)))

let test_pool_schedule_determinism () =
  (* the pool's one schedule — per-item ascending claims — must be a
     pure function of [f]: byte-identical output at every jobs count,
     with real extra domains forced via oversubscription so workers
     actually interleave their claims on a small machine *)
  let f i = Printf.sprintf "item-%d:%d" i (i * i) in
  let n = 200 in
  let serial = Marshal.to_string (Pool.map ~jobs:1 f n) [] in
  List.iter
    (fun jobs ->
      Alcotest.(check string)
        (Printf.sprintf "bytes identical at jobs=%d" jobs)
        serial
        (Marshal.to_string (Pool.map ~jobs ~oversubscribe:true f n) []))
    [ 1; 2; 4 ]

let test_pool_parallel_smallest_error () =
  (* interleaved claims must not change which exception surfaces: still
     the smallest failing index, even with parallel domains racing *)
  for _ = 1 to 5 do
    match
      Pool.map ~jobs:4 ~oversubscribe:true
        (fun i -> if i mod 7 = 3 then failwith (string_of_int i) else i)
        100
    with
    | _ -> Alcotest.fail "expected failure"
    | exception Failure msg -> Alcotest.(check string) "smallest index" "3" msg
  done

let test_pool_guarded_prefix_jobs_independent () =
  (* a guarded map falls back to per-item ascending claims, so a
     complete run is identical across jobs counts and oversubscription,
     and a budget-tripped run still returns a contiguous prefix *)
  let guard () = Guard.create ~budget:1_000_000 () in
  let expected = List.init 50 (fun i -> i * 3) in
  List.iter
    (fun (jobs, oversubscribe) ->
      match
        Pool.map_guarded ~jobs ~oversubscribe ~guard:(guard ())
          (fun i -> i * 3)
          50
      with
      | Pool.Complete vs, _ ->
        Alcotest.(check (list int))
          (Printf.sprintf "complete at jobs=%d" jobs)
          expected vs
      | Pool.Interrupted _, _ -> Alcotest.fail "guard should not trip")
    [ (1, false); (2, true); (4, true) ]

let test_pool_stats () =
  (* one stat per *effective* worker: the pool clamps the requested jobs
     to the machine's cores unless oversubscription is forced *)
  let complete = function
    | Pool.Complete vs, stats -> vs, stats
    | Pool.Interrupted _, _ -> Alcotest.fail "unguarded map interrupted"
  in
  let results, stats =
    complete (Pool.map_guarded ~jobs:3 (fun i -> i + 1) 10)
  in
  Alcotest.(check (list int)) "results" (List.init 10 (fun i -> i + 1)) results;
  Alcotest.(check int) "workers" (Pool.effective_jobs 3) (List.length stats);
  Alcotest.(check int) "tasks add up" 10
    (List.fold_left (fun acc (w : Pool.worker_stat) -> acc + w.tasks) 0 stats);
  let results, stats =
    complete (Pool.map_guarded ~jobs:3 ~oversubscribe:true (fun i -> i + 1) 10)
  in
  Alcotest.(check (list int)) "results (oversubscribed)"
    (List.init 10 (fun i -> i + 1))
    results;
  Alcotest.(check int) "workers (oversubscribed)" 3 (List.length stats);
  Alcotest.(check int) "tasks add up (oversubscribed)" 10
    (List.fold_left (fun acc (w : Pool.worker_stat) -> acc + w.tasks) 0 stats)

let test_pool_counter_consistency () =
  (* counter bumps from worker domains go through one process-global
     atomic per counter, so workers claiming interleaved items must lose
     no updates: totals are exact and schedule-independent at any jobs
     count, including forced oversubscription (real extra domains) *)
  let c = Obs.Metrics.counter "test.explore.counted" in
  let c_tasks = Obs.Metrics.counter "explore.pool.tasks" in
  let n = 500 in
  List.iter
    (fun jobs ->
      let before = Obs.Metrics.total c in
      let tasks_before = Obs.Metrics.total c_tasks in
      let results =
        Pool.map ~jobs ~oversubscribe:true
          (fun i ->
            Obs.Metrics.add c 3;
            i * 2)
          n
      in
      Alcotest.(check (list int))
        (Printf.sprintf "results at jobs=%d" jobs)
        (List.init n (fun i -> i * 2))
        results;
      Alcotest.(check int)
        (Printf.sprintf "no lost user increments at jobs=%d" jobs)
        (3 * n)
        (Obs.Metrics.total c - before);
      Alcotest.(check int)
        (Printf.sprintf "one task bump per item at jobs=%d" jobs)
        n
        (Obs.Metrics.total c_tasks - tasks_before))
    [ 1; 2; 4; 7 ]

let test_pool_hist_merge () =
  (* per-worker latency histograms are domain-private and merged after
     the join: the registered distribution gains exactly one sample per
     task, at any jobs count *)
  let h = Obs.Hist.hist "explore.pool.task_ns" in
  Obs.Hist.set_enabled true;
  Fun.protect
    ~finally:(fun () ->
      Obs.Hist.set_enabled false;
      Obs.Hist.clear h)
    (fun () ->
      List.iter
        (fun jobs ->
          let before = Obs.Hist.count h in
          ignore (Pool.map ~jobs ~oversubscribe:true (fun i -> i + 1) 100);
          Alcotest.(check int)
            (Printf.sprintf "one sample per task at jobs=%d" jobs)
            100
            (Obs.Hist.count h - before))
        [ 1; 3 ])

(* ------------------------------------------------------------------ *)
(* Cache *)

let single_flight ?oversubscribe ~jobs ~n key_of =
  (* [n] lookups keyed by [key_of i] from [jobs] domains: each distinct
     key is computed exactly once, every other lookup is a hit (after
     waiting on the in-flight compute if it has to; the compute sleeps
     briefly so a concurrent lookup of its key does find it pending) *)
  let cache = Cache.create () in
  let computes = Atomic.make 0 in
  let results =
    Pool.map ~jobs ?oversubscribe
      (fun i ->
        let k = key_of i in
        let v, _hit =
          Cache.find_or_compute cache ~key:(Printf.sprintf "k%d" k) (fun () ->
              Atomic.incr computes;
              Unix.sleepf 0.0005;
              k * 7)
        in
        v)
      n
  in
  let distinct = List.length (List.sort_uniq compare (List.init n key_of)) in
  let tag = Printf.sprintf "jobs=%d" jobs in
  Alcotest.(check (list int)) ("values " ^ tag)
    (List.init n (fun i -> key_of i * 7))
    results;
  Alcotest.(check int) ("computed once per key " ^ tag) distinct
    (Atomic.get computes);
  let stats = Cache.stats cache in
  Alcotest.(check int) ("lookups " ^ tag) n stats.Cache.lookups;
  Alcotest.(check int) ("entries " ^ tag) distinct stats.Cache.entries;
  Alcotest.(check int) ("hits = lookups - entries " ^ tag) (n - distinct)
    stats.Cache.hits

let test_cache_single_flight () =
  (* 40 lookups of 10 distinct keys from 4 domains: each key is computed
     exactly once and the statistics are schedule-independent *)
  single_flight ~jobs:4 ~n:40 (fun i -> i mod 10);
  (* adjacent duplicates: interleaved per-item claims hand items [2k]
     and [2k+1] to different workers, so the second lookup of a key
     usually finds its compute still in flight and waits on it *)
  List.iter
    (fun jobs -> single_flight ~oversubscribe:true ~jobs ~n:40 (fun i -> i / 2))
    [ 2; 4 ]

let test_cache_failed_compute_retries () =
  let cache = Cache.create () in
  (match Cache.find_or_compute cache ~key:"k" (fun () -> failwith "boom") with
  | _ -> Alcotest.fail "expected failure"
  | exception Failure _ -> ());
  (* the failed claim is released: a later lookup recomputes *)
  let v, hit = Cache.find_or_compute cache ~key:"k" (fun () -> 42) in
  Alcotest.(check int) "recomputed" 42 v;
  Alcotest.(check bool) "not a hit" false hit

(* ------------------------------------------------------------------ *)
(* Spec digests *)

let test_digest_reorder_invariant () =
  let spec = Paper.spec () in
  let permuted =
    {
      spec with
      Spec.sources = List.rev spec.Spec.sources;
      resources = List.rev spec.Spec.resources;
      tasks = List.rev spec.Spec.tasks;
      frames = List.rev spec.Spec.frames;
    }
  in
  Alcotest.(check string) "element order is canonicalised away"
    (Spec.digest spec) (Spec.digest permuted)

let test_digest_edit_sensitive () =
  let base = Spec.digest (Paper.spec ()) in
  let edited edit = Spec.digest (Space.apply (Paper.spec ()) edit) in
  Alcotest.(check bool) "cet edit changes digest" true
    (base <> edited (Space.Cet_scale { task = "T3"; percent = 101 }));
  Alcotest.(check bool) "period edit changes digest" true
    (base <> edited (Space.Source_period { source = "S3"; period = 999 }));
  Alcotest.(check bool) "priority edit changes digest" true
    (base <> edited (Space.Task_priority { task = "T3"; priority = 9 }));
  Alcotest.(check string) "identity cet scale preserves digest" base
    (edited (Space.Cet_scale { task = "T3"; percent = 100 }))

let test_digest_collision_on_rounding () =
  (* ceil(40 * 101 / 100) = ceil(40 * 102 / 100) = 41: different edits,
     same system, same digest — the driver's dedup hinges on this *)
  let d percent =
    Spec.digest (Space.apply (Paper.spec ()) (Space.Cet_scale { task = "T3"; percent }))
  in
  Alcotest.(check string) "101% = 102% after rounding" (d 101) (d 102)

let test_digest_stable_across_rebuilds () =
  Alcotest.(check string) "fresh builds agree"
    (Spec.digest (Paper.spec ()))
    (Spec.digest (Paper.spec ()))

(* ------------------------------------------------------------------ *)
(* Layout enumeration and repacking *)

let test_packings_bell_count () =
  (* 4 signals on the CAN bus: Bell(4) = 15 partitions, all of which fit *)
  let packings = Space.packings (Paper.spec ()) ~bus:"CAN" () in
  Alcotest.(check int) "Bell(4)" 15 (List.length packings);
  let limited = Space.packings ~max_frames:2 (Paper.spec ()) ~bus:"CAN" () in
  (* S(4,1) + S(4,2) = 1 + 7 *)
  Alcotest.(check int) "at most 2 frames" 8 (List.length limited)

let test_repack_specs_validate () =
  List.iter
    (fun (v : Space.variant) ->
      let spec = Space.apply_all (Paper.spec ()) v.Space.edits in
      match Spec.validate spec with
      | Ok () -> ()
      | Error e -> Alcotest.failf "%s: invalid spec: %s" v.Space.label e)
    (Space.packing_variants (Paper.spec ()) ~bus:"CAN" ())

let test_repack_analysable () =
  (* every enumerated layout of the paper bus analyses to bounded
     responses for the receiver tasks *)
  List.iter
    (fun (v : Space.variant) ->
      let spec = Space.apply_all (Paper.spec ()) v.Space.edits in
      match Engine.analyse ~mode:Engine.Hierarchical spec with
      | Error e ->
        Alcotest.failf "%s: %s" v.Space.label (Guard.Error.to_string e)
      | Ok result ->
        Alcotest.(check bool) (v.Space.label ^ " converged") true
          result.Engine.converged)
    (Space.packing_variants (Paper.spec ()) ~bus:"CAN" ())

let test_grid_cross_product () =
  let grid =
    Space.grid
      [
        Space.int_axis "a"
          (fun p -> Space.Source_period { source = "S3"; period = p })
          [ 1; 2; 3 ];
        Space.int_axis "b"
          (fun p -> Space.Cet_scale { task = "T3"; percent = p })
          [ 10; 20 ];
      ]
  in
  Alcotest.(check int) "3 x 2" 6 (List.length grid);
  Alcotest.(check string) "first label" "a=1 b=10"
    (List.hd grid).Space.label;
  Alcotest.(check int) "edits per variant" 2
    (List.length (List.hd grid).Space.edits)

(* ------------------------------------------------------------------ *)
(* Driver *)

let small_items () =
  Driver.items_of_variants
    ~base:(fun () -> Paper.spec ())
    (Space.grid
       [
         Space.int_axis "s3"
           (fun p -> Space.Source_period { source = "S3"; period = p })
           [ 800; 1000 ];
         Space.int_axis "cet"
           (fun p -> Space.Cet_scale { task = "T3"; percent = p })
           [ 100; 101; 102 ];
       ])

let render_csv report =
  let buf = Buffer.create 1024 in
  let fmt = Format.formatter_of_buffer buf in
  Explore.Render.csv fmt report;
  Format.pp_print_flush fmt ();
  Buffer.contents buf

let test_driver_jobs_independent () =
  let baseline = Driver.run ~jobs:1 (small_items ()) in
  List.iter
    (fun jobs ->
      let report = Driver.run ~jobs (small_items ()) in
      Alcotest.(check string)
        (Printf.sprintf "csv identical at jobs=%d" jobs)
        (render_csv baseline) (render_csv report);
      Alcotest.(check int) "hits" baseline.Driver.cache.Cache.hits
        report.Driver.cache.Cache.hits;
      Alcotest.(check int) "entries" baseline.Driver.cache.Cache.entries
        report.Driver.cache.Cache.entries)
    [ 2; 4 ]

let test_driver_cache_hits_normalised () =
  (* cet 101 and 102 collide after rounding: the first occurrence in item
     order is the miss, the later one the hit — at any job count *)
  List.iter
    (fun jobs ->
      let report = Driver.run ~jobs (small_items ()) in
      let flags =
        List.map (fun (r : Driver.row) -> r.Driver.cache_hit) report.Driver.rows
      in
      Alcotest.(check (list bool))
        (Printf.sprintf "dup flags at jobs=%d" jobs)
        [ false; false; true; false; false; true ]
        flags;
      Alcotest.(check int) "entries" 4 report.Driver.cache.Cache.entries;
      Alcotest.(check int) "hits" 2 report.Driver.cache.Cache.hits)
    [ 1; 3 ]

let test_driver_error_rows () =
  (* a variant with an unknown edit target escapes as an exception (a
     programming error, not an analysis outcome) *)
  let items =
    Driver.items_of_variants
      ~base:(fun () -> Paper.spec ())
      [ { Space.label = "bad"; edits = [ Space.Cet_scale { task = "nope"; percent = 120 } ] } ]
  in
  match Driver.run ~jobs:2 items with
  | _ -> Alcotest.fail "expected Not_found"
  | exception Not_found -> ()

(* ------------------------------------------------------------------ *)
(* Synthetic network generator (feeds the scaling benchmark) *)

let test_network_generator () =
  List.iter
    (fun (seed, ecus) ->
      let spec = Scenarios.Synthetic.network ~seed ~ecus () in
      (match Spec.validate spec with
       | Ok () -> ()
       | Error e -> Alcotest.failf "seed=%d ecus=%d invalid: %s" seed ecus e);
      (match Engine.analyse ~mode:Engine.Hierarchical spec with
       | Ok r ->
         Alcotest.(check bool)
           (Printf.sprintf "seed=%d ecus=%d converges" seed ecus)
           true r.Engine.converged
       | Error e ->
         Alcotest.failf "seed=%d ecus=%d: %s" seed ecus
           (Guard.Error.to_string e));
      (* equal arguments must yield digest-identical specs: the scaling
         benchmark's byte-identical-across-jobs assertion rests on it *)
      Alcotest.(check string)
        (Printf.sprintf "seed=%d ecus=%d deterministic" seed ecus)
        (Spec.digest (Scenarios.Synthetic.network ~seed ~ecus ()))
        (Spec.digest (Scenarios.Synthetic.network ~seed ~ecus ())))
    [ (1, 1); (1, 2); (1, 8); (2, 8); (3, 16); (7, 5) ];
  Alcotest.(check bool) "seeds differ" true
    (Spec.digest (Scenarios.Synthetic.network ~seed:1 ~ecus:8 ())
     <> Spec.digest (Scenarios.Synthetic.network ~seed:2 ~ecus:8 ()))

(* ------------------------------------------------------------------ *)
(* Pareto *)

let mk_summary ?(digest = "d") triples =
  {
    Summary.digest;
    modes =
      [
        {
          Summary.mode = Engine.Hierarchical;
          metrics =
            (let latency, util, margin = triples in
             {
               Summary.converged = true;
               degraded = false;
               worst_latency = Some latency;
               max_util_pct = util;
               margin_pct = margin;
               iterations = 1;
             });
          responses = [];
        };
      ];
  }

let test_pareto_front () =
  let summaries =
    [
      mk_summary (100, 50.0, 50.0);
      (* dominated by the first on every objective *)
      mk_summary (120, 60.0, 40.0);
      (* trades latency for load: incomparable, stays *)
      mk_summary (80, 70.0, 30.0);
      (* duplicate of the first: kept, front is order-independent *)
      mk_summary (100, 50.0, 50.0);
    ]
  in
  Alcotest.(check (list int)) "front indices" [ 0; 2; 3 ]
    (Summary.pareto ~mode:Engine.Hierarchical summaries)

let test_pareto_ignores_unbounded () =
  let diverged =
    {
      Summary.digest = "x";
      modes =
        [
          {
            Summary.mode = Engine.Hierarchical;
            metrics =
              {
                Summary.converged = false;
                degraded = false;
                worst_latency = None;
                max_util_pct = 0.0;
                margin_pct = 100.0;
                iterations = 1;
              };
            responses = [];
          };
        ];
    }
  in
  Alcotest.(check (list int)) "diverged never on the front" [ 1 ]
    (Summary.pareto ~mode:Engine.Hierarchical
       [ diverged; mk_summary (100, 50.0, 50.0) ])

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "explore"
    [
      ( "pool",
        [
          Alcotest.test_case "index order at any job count" `Quick
            test_pool_order;
          Alcotest.test_case "empty work list" `Quick test_pool_empty;
          Alcotest.test_case "smallest-index error wins" `Quick
            test_pool_smallest_error;
          Alcotest.test_case "invalid arguments" `Quick test_pool_invalid;
          Alcotest.test_case "worker stats" `Quick test_pool_stats;
          Alcotest.test_case "schedule deterministic across jobs" `Quick
            test_pool_schedule_determinism;
          Alcotest.test_case "parallel smallest-index error" `Quick
            test_pool_parallel_smallest_error;
          Alcotest.test_case "guarded prefix jobs-independent" `Quick
            test_pool_guarded_prefix_jobs_independent;
          Alcotest.test_case "multi-domain counter consistency" `Quick
            test_pool_counter_consistency;
          Alcotest.test_case "worker histograms merge exactly" `Quick
            test_pool_hist_merge;
        ] );
      ( "cache",
        [
          Alcotest.test_case "single-flight stats" `Quick
            test_cache_single_flight;
          Alcotest.test_case "failed compute releases claim" `Quick
            test_cache_failed_compute_retries;
        ] );
      ( "digest",
        [
          Alcotest.test_case "reorder invariant" `Quick
            test_digest_reorder_invariant;
          Alcotest.test_case "edit sensitive" `Quick test_digest_edit_sensitive;
          Alcotest.test_case "rounding collision" `Quick
            test_digest_collision_on_rounding;
          Alcotest.test_case "stable across rebuilds" `Quick
            test_digest_stable_across_rebuilds;
        ] );
      ( "space",
        [
          Alcotest.test_case "Bell(4) layouts" `Quick test_packings_bell_count;
          Alcotest.test_case "repacked specs validate" `Quick
            test_repack_specs_validate;
          Alcotest.test_case "repacked specs analyse" `Quick
            test_repack_analysable;
          Alcotest.test_case "grid cross product" `Quick
            test_grid_cross_product;
        ] );
      ( "driver",
        [
          Alcotest.test_case "jobs-independent rows" `Quick
            test_driver_jobs_independent;
          Alcotest.test_case "normalised cache hits" `Quick
            test_driver_cache_hits_normalised;
          Alcotest.test_case "unknown target raises" `Quick
            test_driver_error_rows;
        ] );
      ( "synthetic",
        [
          Alcotest.test_case "network generator" `Quick test_network_generator;
        ] );
      ( "pareto",
        [
          Alcotest.test_case "front" `Quick test_pareto_front;
          Alcotest.test_case "unbounded excluded" `Quick
            test_pareto_ignores_unbounded;
        ] );
    ]
