module Curve = Event_model.Curve
module Count = Timebase.Count
module Interval = Timebase.Interval
module Stream = Event_model.Stream
module Task_op = Event_model.Task_op

let simultaneity s =
  match Stream.eta_plus s 1 with
  | Count.Fin n -> n
  | Count.Inf ->
    invalid_arg "Inner_update.simultaneity: unbounded simultaneous arrivals"

let update_inner ~spread ~r_minus ~k stream label =
  let shift = spread + ((k - 1) * r_minus) in
  let map_finite curve f =
    Curve.table ~pointwise:true (fun ~n0 ~len ~dst ~pos ->
      Curve.eval_range_into curve ~n0 ~len ~dst ~pos;
      for i = 0 to len - 1 do
        let v = dst.(pos + i) in
        if v <> Curve.packed_inf then
          dst.(pos + i) <- f (n0 + i) v
      done)
  in
  (* delta_min n = max (delta_min n - shift) ((n - 1) * r_minus),
     delta_plus n = delta_plus n + shift *)
  let delta_min =
    map_finite (Stream.delta_min_curve stream) (fun n v ->
      Int.max (Int.max 0 (v - shift)) ((n - 1) * r_minus))
  in
  let delta_plus =
    map_finite (Stream.delta_plus_curve stream) (fun _ v -> v + shift)
  in
  Stream.of_curves ~name:(Printf.sprintf "upd(%s)" label) ~delta_min
    ~delta_plus

let apply_response ?simultaneity:k_override ~response h =
  match Model.rule h with
  | Model.Packed ->
    let r_minus = Interval.lo response in
    let spread = Interval.width response in
    let run () =
      let k =
        match k_override with
        | Some k when k < 1 ->
          invalid_arg "Inner_update.apply_response: simultaneity < 1"
        | Some k -> k
        | None -> simultaneity (Model.outer h)
      in
      let outer = Task_op.output ~response (Model.outer h) in
      let h' = Model.map_inner_streams
          (fun (i : Model.inner) ->
            update_inner ~spread ~r_minus ~k i.stream i.label)
          h
      in
      Model.make ~outer ~inners:(Model.inners h') ~rule:(Model.rule h)
    in
    if Obs.Trace.enabled () then
      Obs.Trace.with_span "hem.inner_update"
        ~attrs:
          [
            "inners", Obs.Event.Int (Model.arity h);
            "r_minus", Obs.Event.Int r_minus;
            "spread", Obs.Event.Int spread;
          ]
        run
    else run ()
