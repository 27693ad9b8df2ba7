module Spec = Cpa_system.Spec
module Engine = Cpa_system.Engine

type item = {
  label : string;
  build : unit -> Spec.t;
}

let item_of_variant ~base (v : Space.variant) =
  { label = v.Space.label; build = (fun () -> Space.apply_all (base ()) v.Space.edits) }

let items_of_variants ~base variants =
  List.map (item_of_variant ~base) variants

let plan ~base variants =
  let spec = base () in
  let invalid (v : Space.variant) reason =
    Error
      (Guard.Error.Invalid_spec
         { reason = Printf.sprintf "variant %s: %s" v.Space.label reason })
  in
  let rec check = function
    | [] -> Ok (items_of_variants ~base variants)
    | (v : Space.variant) :: rest -> (
      match Space.apply_all spec v.Space.edits with
      | _ -> check rest
      | exception Not_found -> invalid v "edit names an unknown element"
      | exception Invalid_argument reason -> invalid v reason)
  in
  check variants

let item_of_description ~label description =
  { label; build = (fun () -> Cpa_system.Spec_file.to_spec description) }

type row = {
  label : string;
  digest : string;
  summary : (Summary.t, string) result;
  cache_hit : bool;
}

type report = {
  rows : row list;
  jobs : int;
  modes : Engine.mode list;
  cache : Cache.stats;
  wall_ms : float;
  workers : Pool.worker_stat list;
  interrupted : Guard.Error.t option;
}

(* Per-domain scratch for spec canonicalisation: one buffer per worker,
   grown once and reused for every item the worker digests, instead of
   allocating (and re-growing) a fresh buffer per spec.  Digest values
   are unchanged, so cache keys — and the cache-hit invariants the
   driver tests pin down — are unaffected. *)
let digest_scratch : Buffer.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Buffer.create 4096)

let run ?jobs ?(modes = Summary.default_modes) ?(guard = Guard.none) items =
  let jobs =
    match jobs with Some j -> j | None -> Pool.default_jobs ()
  in
  let cache : (Summary.t, string) result Cache.t = Cache.create () in
  let items = Array.of_list items in
  let t0 = Obs.Clock.now_us () in
  let outcome, workers =
    Pool.map_guarded ~jobs ~label:"explore" ~guard
      (fun i ->
        let item = items.(i) in
        let spec = item.build () in
        let digest = Spec.digest_with (Domain.DLS.get digest_scratch) spec in
        let summary, _raced_hit =
          Cache.find_or_compute cache ~key:digest (fun () ->
            Summary.evaluate ~modes ~digest spec)
        in
        { label = item.label; digest; summary; cache_hit = false })
      (Array.length items)
  in
  let rows, interrupted =
    match outcome with
    | Pool.Complete rows -> rows, None
    | Pool.Interrupted { completed; reason; _ } -> completed, Some reason
  in
  let wall_ms = (Obs.Clock.now_us () -. t0) /. 1000.0 in
  (* Which worker won the single-flight race is schedule-dependent, so
     the per-row hit flag is normalised on the merged order: the first
     occurrence of a digest is the miss, every later one the hit.  This
     keeps the whole report independent of --jobs. *)
  let seen = Hashtbl.create 64 in
  let rows =
    List.map
      (fun r ->
        if Hashtbl.mem seen r.digest then { r with cache_hit = true }
        else begin
          Hashtbl.add seen r.digest ();
          r
        end)
      rows
  in
  (* A complete run reports the cache's own statistics (deterministic by
     single-flight).  An interrupted run's cache may hold computes for
     items beyond the returned prefix, and how many is schedule-
     dependent — so the stats are renormalised to the prefix, keeping
     the report byte-identical at any job count for a deterministic
     interruption point. *)
  let cache_stats =
    match interrupted with
    | None -> Cache.stats cache
    | Some _ ->
      let lookups = List.length rows in
      let entries =
        List.length (List.filter (fun r -> not r.cache_hit) rows)
      in
      { Cache.lookups; entries; hits = lookups - entries }
  in
  { rows; jobs; modes; cache = cache_stats; wall_ms; workers; interrupted }

let pareto report ~mode =
  let ok_rows =
    List.filter_map
      (fun r ->
        match r.summary with Ok s -> Some (r, s) | Error _ -> None)
      report.rows
  in
  let front =
    Summary.pareto ~mode (List.map snd ok_rows)
  in
  List.filteri (fun i _ -> List.mem i front) (List.map fst ok_rows)
