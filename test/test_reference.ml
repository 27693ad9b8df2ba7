(* Production operators against Verify.Reference, the direct
   transcription of the paper's equations: the OR-combination (eqs 3-4)
   on compact, closure-backed, sporadic and simultaneous-burst inputs, and the SPP/SPNP/EDF
   busy-window analyses on random task sets whose busy windows span
   several activations (so the warm-started fixpoints and resumable
   demand searches are exercised); and every table-backed operator, read
   by range and by point, against the reference or its formula. *)

module Time = Timebase.Time
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Combine = Event_model.Combine
module Busy_window = Scheduling.Busy_window
module Rt_task = Scheduling.Rt_task
module Edf = Scheduling.Edf
module Reference = Verify.Reference

(* ------------------------------------------------------------------ *)
(* OR-combination *)

(* standard event model (P, J, d_min = 1) as a plain closure: the same
   stream as [Stream.periodic_jitter], but on the closure backend *)
let closure_jitter ~period ~jitter =
  Stream.make ~name:"closure"
    ~delta_min:(fun n ->
      Time.of_int (Stdlib.max (n - 1) (((n - 1) * period) - jitter)))
    ~delta_plus:(fun n -> Time.of_int (((n - 1) * period) + jitter))

type kind = Compact | Closure | Sporadic | Burst

let kind_name = function
  | Compact -> "compact"
  | Closure -> "closure"
  | Sporadic -> "sporadic"
  | Burst -> "burst"

(* [Burst] reads the second parameter as a burst size of 1-6 events
   arriving simultaneously ([d_min = 0]) *)
let stream_of (kind, period, jitter) =
  match kind with
  | Compact -> Stream.periodic_jitter ~name:"compact" ~period ~jitter ()
  | Closure -> closure_jitter ~period ~jitter
  | Sporadic -> Stream.sporadic ~name:"sporadic" ~d_min:period
  | Burst ->
    Stream.periodic_burst ~name:"burst" ~period ~burst:(1 + (jitter mod 6))
      ~d_min:0

let print_inputs inputs =
  String.concat "; "
    (List.map
       (fun (k, p, j) -> Printf.sprintf "%s(%d,%d)" (kind_name k) p j)
       inputs)

let gen_or_inputs =
  let open QCheck.Gen in
  list_size (int_range 1 16)
    (triple
       (oneofl [ Compact; Closure; Sporadic; Burst ])
       (int_range 1 200) (int_range 0 400))

let arb_or_inputs = QCheck.make ~print:print_inputs gen_or_inputs

(* every index up to past the flat-SEM fit horizon of 256 *)
let or_ns = List.init 301 Fun.id

let same_curves a b =
  List.for_all
    (fun n ->
      Time.equal (Stream.delta_min a n) (Stream.delta_min b n)
      && Time.equal (Stream.delta_plus a n) (Stream.delta_plus b n))
    or_ns

let prop_or_matches_reference =
  QCheck.Test.make ~name:"or_combine = reference" ~count:80 arb_or_inputs
    (fun inputs ->
      let streams = List.map stream_of inputs in
      same_curves (Combine.or_combine streams) (Reference.or_combine streams))

(* the merge breaks ties by input position; the curves must not depend
   on it *)
let prop_or_order_independent =
  let arb =
    QCheck.make
      ~print:(fun (a, b) -> print_inputs a ^ " | shuffled: " ^ print_inputs b)
      QCheck.Gen.(
        let* inputs = gen_or_inputs in
        let+ shuffled = shuffle_l inputs in
        (inputs, shuffled))
  in
  QCheck.Test.make ~name:"or_combine ignores input order" ~count:80 arb
    (fun (inputs, shuffled) ->
      same_curves
        (Combine.or_combine (List.map stream_of inputs))
        (Combine.or_combine (List.map stream_of shuffled)))

(* ------------------------------------------------------------------ *)
(* busy windows *)

type spec_task = {
  period : int;
  jitter : int;
  cet : int * int;
  priority : int;
  deadline : int;
  closure : bool;
}

let print_task t =
  Printf.sprintf "{P=%d J=%d C=[%d:%d] prio=%d D=%d%s}" t.period t.jitter
    (fst t.cet) (snd t.cet) t.priority t.deadline
    (if t.closure then " closure" else "")

(* [n] tasks sharing a utilisation below 0.6, so no busy period
   diverges; the first task has jitter >= its period and C+ >= 2, so at
   least two of its activations share a busy window (q >= 2) *)
let gen_task ~n ~bursty =
  let open QCheck.Gen in
  let* period = int_range 20 300 in
  let* jitter =
    if bursty then int_range period (3 * period) else int_range 0 (2 * period)
  in
  let c_cap = Stdlib.max 2 (period * 6 / (10 * n)) in
  let* c_hi = int_range 2 c_cap in
  let* c_lo = int_range 1 c_hi in
  let* priority = int_range 1 5 in
  let* deadline = int_range c_hi (2 * period) in
  let+ closure = bool in
  { period; jitter; cet = (c_lo, c_hi); priority; deadline; closure }

let arb_task_set =
  let open QCheck in
  let gen =
    let open Gen in
    let* n = int_range 2 5 in
    let* first = gen_task ~n ~bursty:true in
    let+ rest = list_repeat (n - 1) (gen_task ~n ~bursty:false) in
    first :: rest
  in
  make ~print:(fun ts -> String.concat " " (List.map print_task ts)) gen

let rt_tasks specs =
  List.mapi
    (fun i t ->
      let activation =
        if t.closure then closure_jitter ~period:t.period ~jitter:t.jitter
        else
          Stream.periodic_jitter ~name:"a" ~period:t.period ~jitter:t.jitter ()
      in
      Rt_task.make ~name:(Printf.sprintf "t%d" i)
        ~cet:(Interval.make ~lo:(fst t.cet) ~hi:(snd t.cet))
        ~priority:t.priority ~activation)
    specs

let render_outcome = Format.asprintf "%a" Busy_window.pp_outcome

let render_result show = function
  | Ok v -> "ok " ^ show v
  | Error e -> "error " ^ e

(* every task of the set: response outcome and backlog bound rendered by
   both implementations; the first task's busy window must reach q >= 2 *)
let busy_agreement ~production_response ~production_backlog
    ~reference_response ~reference_backlog specs =
  let tasks = rt_tasks specs in
  let q_max = ref 0 in
  let agree =
    List.for_all
      (fun task ->
        let others = List.filter (fun t -> t != task) tasks in
        let record ~q ~arr:_ ~fin:_ =
          if task == List.hd tasks then q_max := Stdlib.max !q_max q
        in
        let p =
          render_outcome (production_response ~record ~task ~others)
          ^ render_result string_of_int (production_backlog ~task ~others)
        and r =
          render_outcome (reference_response ~task ~others)
          ^ render_result string_of_int (reference_backlog ~task ~others)
        in
        if String.equal p r then true
        else QCheck.Test.fail_reportf "%s: production %s, reference %s"
            task.Rt_task.name p r)
      tasks
  in
  agree && !q_max >= 2

let prop_spp_matches_reference =
  QCheck.Test.make ~name:"spp response/backlog = reference" ~count:100
    arb_task_set (fun specs ->
      busy_agreement specs
        ~production_response:(fun ~record ~task ~others ->
          Scheduling.Spp.response_time ~record ~task ~others ())
        ~production_backlog:(fun ~task ~others ->
          Scheduling.Spp.backlog_bound ~task ~others ())
        ~reference_response:(fun ~task ~others ->
          Reference.spp_response_time ~task ~others ())
        ~reference_backlog:(fun ~task ~others ->
          Reference.spp_backlog_bound ~task ~others ()))

let prop_spnp_matches_reference =
  QCheck.Test.make ~name:"spnp response/backlog = reference" ~count:100
    arb_task_set (fun specs ->
      busy_agreement specs
        ~production_response:(fun ~record ~task ~others ->
          Scheduling.Spnp.response_time ~record ~task ~others ())
        ~production_backlog:(fun ~task ~others ->
          Scheduling.Spnp.backlog_bound ~task ~others ())
        ~reference_response:(fun ~task ~others ->
          Reference.spnp_response_time ~task ~others ())
        ~reference_backlog:(fun ~task ~others ->
          Reference.spnp_backlog_bound ~task ~others ()))

let prop_edf_matches_reference =
  QCheck.Test.make ~name:"edf busy period/schedulable = reference" ~count:100
    arb_task_set (fun specs ->
      let tasks =
        List.map2
          (fun task t -> { Edf.task; deadline = t.deadline })
          (rt_tasks specs) specs
      in
      let render busy_period schedulable =
        render_result string_of_int (busy_period tasks)
        ^ " / "
        ^ render_result (fun () -> "") (schedulable tasks)
      in
      let p =
        render (fun ts -> Edf.busy_period ts) (fun ts -> Edf.schedulable ts)
      and r = render Reference.edf_busy_period Reference.edf_schedulable in
      String.equal p r
      || QCheck.Test.fail_reportf "production %s, reference %s" p r)

(* ------------------------------------------------------------------ *)
(* Table-backed operators: range fills against point evaluation *)

module Curve = Event_model.Curve

let packed = function Time.Fin d -> d | Time.Inf -> Curve.packed_inf

(* A stream on the closure backend (so operators over it cannot take a
   compact shortcut).  With [finite > 0] both curves are infinite from
   index [finite + 1] on: delta_min of a stream admitting finitely many
   events, delta_plus of a sporadic one. *)
let closure_stream (period, jitter, finite) =
  let cut n v = if finite > 0 && n > finite then Time.Inf else Time.of_int v in
  Stream.make ~name:"closure"
    ~delta_min:(fun n ->
      cut n (Stdlib.max (n - 1) (((n - 1) * period) - jitter)))
    ~delta_plus:(fun n -> cut n (((n - 1) * period) + jitter))

let gen_closure_params =
  QCheck.Gen.(
    triple (int_range 1 200) (int_range 0 400)
      (oneof [ return 0; int_range 2 60 ]))

let print_closure_params (p, j, f) =
  Printf.sprintf "closure(%d,%d,finite %d)" p j f

(* probe ranges (n0, len): shallow ones, and deep ones straddling 2^15,
   where pointwise tables switch to one-cell deep probes *)
let gen_ranges =
  QCheck.Gen.(
    list_size (int_range 1 12)
      (pair
         (oneof
            [ int_range (-2) 400; int_range ((1 lsl 15) - 4) ((1 lsl 15) + 40) ])
         (int_range 0 24)))

let print_ranges rs =
  String.concat " "
    (List.map (fun (n0, len) -> Printf.sprintf "%d+%d" n0 len) rs)

(* [build ()] makes a fresh operator stream.  One instance is read with
   [Curve.eval_range_into] over [ranges], in the given order, another
   with point [Curve.eval] in the same order; both must agree, and equal
   [reference_min n] / [reference_plus n] wherever those give a value. *)
let ranges_agree ~build ~reference_min ~reference_plus ranges =
  let ranged = build () and pointed = build () in
  let check name curve_of reference (n0, len) =
    let r = curve_of ranged and p = curve_of pointed in
    let dst = Array.make (len + 2) (-1) in
    Curve.eval_range_into r ~n0 ~len ~dst ~pos:1;
    (dst.(0) = -1 && dst.(len + 1) = -1
    || QCheck.Test.fail_reportf "%s: write outside %d+%d" name n0 len)
    && List.for_all
         (fun i ->
           let n = n0 + i in
           let got = dst.(i + 1) and point = packed (Curve.eval p n) in
           let want = Option.fold ~none:point ~some:packed (reference n) in
           (got = point && point = want)
           || QCheck.Test.fail_reportf
                "%s n = %d: range %d, point %d, reference %d" name n got
                point want)
         (List.init len Fun.id)
  in
  List.for_all
    (fun range ->
      check "delta_min" Stream.delta_min_curve reference_min range
      && check "delta_plus" Stream.delta_plus_curve reference_plus range)
    ranges

(* a reference that is only affordable up to [limit] *)
let upto limit f n = if n <= limit then Some (f n) else None

let prop_or_table_ranges =
  let arb =
    QCheck.make
      ~print:(fun (i, r) -> print_inputs i ^ " | " ^ print_ranges r)
      QCheck.Gen.(
        pair
          (list_size (int_range 2 5)
             (triple
                (oneofl [ Compact; Closure; Sporadic; Burst ])
                (int_range 1 200) (int_range 0 400)))
          gen_ranges)
  in
  QCheck.Test.make ~name:"or_combine ranges = points = reference"
    ~count:30 arb (fun (inputs, ranges) ->
      let build () = Combine.or_combine (List.map stream_of inputs) in
      (* the reference's pairwise scans are quadratic in n *)
      let reference = Reference.or_combine (List.map stream_of inputs) in
      ranges_agree ~build ranges
        ~reference_min:(upto 300 (Stream.delta_min reference))
        ~reference_plus:(upto 300 (Stream.delta_plus reference)))

let pointwise_fold pick streams curve n =
  List.fold_left
    (fun acc s -> pick acc (curve s n))
    (curve (List.hd streams) n)
    (List.tl streams)

let prop_and_table_ranges =
  let arb =
    QCheck.make
      ~print:(fun (ps, r) ->
        String.concat "; " (List.map print_closure_params ps)
        ^ " | " ^ print_ranges r)
      QCheck.Gen.(pair (list_size (int_range 1 4) gen_closure_params) gen_ranges)
  in
  QCheck.Test.make ~name:"and_combine ranges = points = reference"
    ~count:30 arb (fun (params, ranges) ->
      let streams = List.map closure_stream params in
      let build () = Combine.and_combine streams in
      ranges_agree ~build ranges
        ~reference_min:(fun n ->
          Some (pointwise_fold Time.min streams Stream.delta_min n))
        ~reference_plus:(fun n ->
          Some (pointwise_fold Time.max streams Stream.delta_plus n)))

let gen_response =
  QCheck.Gen.(
    map (fun (lo, w) -> Interval.make ~lo ~hi:(lo + w))
      (pair (int_range 0 40) (int_range 0 80)))

let print_response r = Printf.sprintf "[%d:%d]" (Interval.lo r) (Interval.hi r)

let arb_closure_response =
  QCheck.make
    ~print:(fun ((p, r), rs) ->
      print_closure_params p ^ " " ^ print_response r ^ " | " ^ print_ranges rs)
    QCheck.Gen.(pair (pair gen_closure_params gen_response) gen_ranges)

let prop_theta_table_ranges =
  QCheck.Test.make ~name:"Theta_tau ranges = points = reference"
    ~count:30 arb_closure_response (fun ((params, response), ranges) ->
      let input = closure_stream params in
      let build () = Event_model.Task_op.output ~response input in
      let reference = Reference.task_output ~response input in
      (* the reference recursion is linear in n per point *)
      ranges_agree ~build ranges
        ~reference_min:(upto 400 (Stream.delta_min reference))
        ~reference_plus:(fun n -> Some (Stream.delta_plus reference n)))

let prop_inner_update_table_ranges =
  QCheck.Test.make ~name:"inner update ranges = points = Def 9"
    ~count:30 arb_closure_response (fun ((params, response), ranges) ->
      let signal = closure_stream params in
      let k = 1 + (Interval.lo response mod 3) in
      let r_minus = Interval.lo response and spread = Interval.width response in
      let shift = Time.of_int (spread + ((k - 1) * r_minus)) in
      let build () =
        Hem.Pack.pack
          [ Hem.Pack.input "s" signal;
            Hem.Pack.input "q" (Stream.periodic ~name:"q" ~period:50) ]
        |> Hem.Inner_update.apply_response ~simultaneity:k ~response
        |> fun h -> Hem.Deconstruct.unpack_label h "s"
      in
      ranges_agree ~build ranges
        ~reference_min:(fun n ->
          Some
            (if n <= 1 then Time.zero
             else
               Time.max
                 (Time.sub_clamped (Stream.delta_min signal n) shift)
                 (Time.of_int ((n - 1) * r_minus))))
        ~reference_plus:(fun n ->
          Some
            (if n <= 1 then Time.zero
             else Time.add (Stream.delta_plus signal n) shift)))

let prop_pending_table_ranges =
  let arb =
    QCheck.make
      ~print:(fun ((t, p), rs) ->
        print_closure_params t ^ " pending " ^ print_closure_params p ^ " | "
        ^ print_ranges rs)
      QCheck.Gen.(pair (pair gen_closure_params gen_closure_params) gen_ranges)
  in
  QCheck.Test.make ~name:"pending ranges = points = eq 7"
    ~count:30 arb (fun ((trigger, pending), ranges) ->
      let trigger = closure_stream trigger and pending = closure_stream pending in
      let build () =
        let h =
          Hem.Pack.pack
            [
              Hem.Pack.input "t" trigger;
              Hem.Pack.input ~kind:Hem.Model.Pending "p" pending;
            ]
        in
        Hem.Deconstruct.unpack_label h "p"
      in
      let gap = Stream.delta_plus trigger 2 in
      ranges_agree ~build ranges
        ~reference_min:(fun n ->
          Some
            (if n <= 1 then Time.zero
             else
               Time.max
                 (Time.sub_clamped (Stream.delta_min pending n) gap)
                 (Stream.delta_min trigger n)))
        ~reference_plus:(fun n -> Some (if n <= 1 then Time.zero else Time.Inf)))

let () =
  Alcotest.run "reference"
    [
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_or_matches_reference;
            prop_or_order_independent;
            prop_spp_matches_reference;
            prop_spnp_matches_reference;
            prop_edf_matches_reference;
          ] );
      ( "tables",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_or_table_ranges;
            prop_and_table_ranges;
            prop_theta_table_ranges;
            prop_inner_update_table_ranges;
            prop_pending_table_ranges;
          ] );
    ]
