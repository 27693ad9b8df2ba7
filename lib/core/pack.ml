module Time = Timebase.Time
module Stream = Event_model.Stream
module Combine = Event_model.Combine
module Curve = Event_model.Curve

type input = {
  label : string;
  kind : Model.signal_kind;
  stream : Stream.t;
}

let input ?(kind = Model.Triggering) label stream = { label; kind; stream }

type warning = {
  frame : string;
  signal : string;
  reason : string;
}

let warn_hook : (warning -> unit) option Atomic.t = Atomic.make None

let set_warn_hook f = Atomic.set warn_hook (Some f)

let clear_warn_hook () = Atomic.set warn_hook None

let warn ~frame ~signal reason =
  match Atomic.get warn_hook with
  | None -> ()
  | Some f -> f { frame; signal; reason }

(* Ω_pa proper: builds the hierarchical model once inputs are validated. *)
let build ~name ~inputs ~triggering =
  let outer = Combine.or_combine ~name triggering in
  (* eq. (7) uses the maximum distance between two frames. *)
  let frame_gap = Stream.delta_plus outer 2 in
  let inner_of_input i =
    match i.kind with
    | Model.Triggering ->
      (* eqs. (5)-(6): frames carrying this signal inherit its timing *)
      { Model.label = i.label; kind = i.kind; stream = i.stream }
    | Model.Pending ->
      if not (Time.is_finite frame_gap) then
        warn ~frame:name ~signal:i.label
          "outer delta_plus 2 is unbounded: eq. (7) degrades to the \
           trivial outer bound for this pending signal";
      (* eq. (7): the first of n pending values may just miss a frame and
         wait a full frame gap; the frames themselves are spaced at least
         delta_min_out n apart.  An unbounded gap leaves the outer term. *)
      let outer_min = Stream.delta_min_curve outer in
      let delta_min =
        match frame_gap with
        | Time.Inf -> outer_min
        | Time.Fin gap ->
          let own = Stream.delta_min_curve i.stream in
          Curve.table ~pointwise:true (fun ~n0 ~len ~dst ~pos ->
            Curve.eval_range_into own ~n0 ~len ~dst ~pos;
            let frames = Array.make len 0 in
            Curve.eval_range_into outer_min ~n0 ~len ~dst:frames ~pos:0;
            for j = 0 to len - 1 do
              let v = dst.(pos + j) in
              let v = if v = Curve.packed_inf then v else Int.max 0 (v - gap) in
              dst.(pos + j) <- Int.max v frames.(j)
            done)
      in
      (* eq. (8) *)
      let delta_plus =
        Curve.table ~pointwise:true (fun ~n0:_ ~len ~dst ~pos ->
          Array.fill dst pos len Curve.packed_inf)
      in
      let stream =
        Stream.of_curves
          ~name:(Printf.sprintf "%s@%s" i.label name)
          ~delta_min ~delta_plus
      in
      { Model.label = i.label; kind = i.kind; stream }
  in
  Model.make ~outer ~inners:(List.map inner_of_input inputs) ~rule:Model.Packed

let pack ?name inputs =
  if inputs = [] then invalid_arg "Pack.pack: no inputs";
  let triggering =
    List.filter_map
      (fun i ->
        match i.kind with
        | Model.Triggering -> Some i.stream
        | Model.Pending -> None)
      inputs
  in
  if triggering = [] then
    invalid_arg "Pack.pack: a frame needs at least one triggering input";
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "pack(%s)"
        (String.concat "," (List.map (fun i -> i.label) inputs))
  in
  let run () = build ~name ~inputs ~triggering in
  if Obs.Trace.enabled () then
    Obs.Trace.with_span "hem.pack"
      ~attrs:
        [
          "name", Obs.Event.Str name;
          "inputs", Obs.Event.Int (List.length inputs);
          "triggering", Obs.Event.Int (List.length triggering);
          "pending",
          Obs.Event.Int (List.length inputs - List.length triggering);
        ]
      run
  else run ()
