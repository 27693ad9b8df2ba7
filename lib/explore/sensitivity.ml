module Engine = Cpa_system.Engine

let schedulable ?mode spec =
  match Engine.analyse ?mode spec with
  | Ok result -> result.Engine.converged
  | Error _ -> false

type verdict =
  | Margin of int
  | No_margin
  | Non_monotone of {
      lo_feasible : bool;
      hi_feasible : bool;
    }
  | Empty_interval of {
      lo : int;
      hi : int;
    }

let pp_verdict ppf = function
  | Margin x -> Format.fprintf ppf "margin %d" x
  | No_margin -> Format.pp_print_string ppf "no margin"
  | Non_monotone { lo_feasible; hi_feasible } ->
    Format.fprintf ppf "non-monotone feasibility (lo %s, hi %s)"
      (if lo_feasible then "feasible" else "infeasible")
      (if hi_feasible then "feasible" else "infeasible")
  | Empty_interval { lo; hi } ->
    Format.fprintf ppf "empty interval [%d, %d]" lo hi

let label = "explore.sensitivity"

(* [k] interior probe points of the open interval (lo, hi), distinct and
   ascending; fewer when the interval is narrow.  With [k = 1] this is
   the bisection midpoint. *)
let probe_points ~lo ~hi k =
  let width = hi - lo in
  let rec collect acc j =
    if j = 0 then acc
    else
      let p = lo + (j * width / (k + 1)) in
      let acc = if p > lo && p < hi && not (List.mem p acc) then p :: acc else acc in
      collect acc (j - 1)
  in
  collect [] k

(* Largest x in [lo, hi] with [good x], for a monotone predicate (true
   then false), evaluating up to [jobs] probes per round in parallel.
   Parallel evaluation of a monotone predicate cannot change the answer,
   only the bracket-shrinking rate.  Both endpoints are probed first (in
   parallel) so degenerate searches — empty interval, nothing feasible,
   or endpoint feasibility contradicting monotonicity — return a
   structured verdict instead of an inverted bracket. *)
let search_max ~jobs ~lo ~hi good =
  if lo > hi then Empty_interval { lo; hi }
  else
    let endpoints =
      if hi = lo then
        let g = good lo in
        [ g; g ]
      else Pool.map ~jobs ~label (fun i -> good (if i = 0 then lo else hi)) 2
    in
    match endpoints with
    | [ false; false ] -> No_margin
    | [ false; true ] -> Non_monotone { lo_feasible = false; hi_feasible = true }
    | [ true; true ] -> Margin hi
    | [ true; false ] ->
      let rec search lo hi =
        (* invariant: good lo, not (good hi) *)
        if hi - lo <= 1 then Margin lo
        else begin
          let points = Array.of_list (probe_points ~lo ~hi jobs) in
          let verdicts =
            Pool.map ~jobs ~label (fun i -> good points.(i))
              (Array.length points)
          in
          (* tightest bracket: the largest good probe and smallest bad one *)
          let lo', hi' =
            List.fold_left2
              (fun (l, h) p v ->
                if v then (Stdlib.max l p, h) else (l, Stdlib.min h p))
              (lo, hi) (Array.to_list points) verdicts
          in
          search lo' hi'
        end
      in
      search lo hi
    | _ -> assert false

(* Smallest good x: the largest good -x, with the verdict mapped back
   (the endpoints swap under negation). *)
let search_min ~jobs ~lo ~hi good =
  match search_max ~jobs ~lo:(-hi) ~hi:(-lo) (fun neg -> good (-neg)) with
  | Margin neg -> Margin (-neg)
  | No_margin -> No_margin
  | Non_monotone { lo_feasible; hi_feasible } ->
    Non_monotone { lo_feasible = hi_feasible; hi_feasible = lo_feasible }
  | Empty_interval _ -> Empty_interval { lo; hi }

let margin = function
  | Margin p -> Some p
  | No_margin | Non_monotone _ | Empty_interval _ -> None

let max_cet_scale_verdict ?(jobs = Pool.default_jobs ()) ?mode
    ?(limit_percent = 10_000) ~build ~task () =
  let good percent =
    schedulable ?mode (Space.scale_cet (build ()) ~task ~percent)
  in
  search_max ~jobs ~lo:100 ~hi:limit_percent good

let max_cet_scale ?jobs ?mode ?limit_percent ~build ~task () =
  margin (max_cet_scale_verdict ?jobs ?mode ?limit_percent ~build ~task ())

let min_source_period_verdict ?(jobs = Pool.default_jobs ()) ?mode ~rebuild
    ~lo ~hi () =
  search_min ~jobs ~lo ~hi (fun period -> schedulable ?mode (rebuild period))

let min_source_period ?jobs ?mode ~rebuild ~lo ~hi () =
  if lo > hi then invalid_arg "Sensitivity.min_source_period: lo > hi";
  margin (min_source_period_verdict ?jobs ?mode ~rebuild ~lo ~hi ())
