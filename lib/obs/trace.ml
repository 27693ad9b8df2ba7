let enabled = Sink.enabled

let clock : (unit -> float) ref = ref Clock.now_us

let last_ts = ref neg_infinity

let set_clock f =
  clock := f;
  last_ts := neg_infinity

let now_us () =
  let t = !clock () in
  let t = if t < !last_ts then !last_ts else t in
  last_ts := t;
  t

let emit e =
  match Sink.installed () with
  | Some s -> s.Sink.emit e
  | None -> ()

let span_begin ?(attrs = []) name =
  if Sink.enabled () then
    emit (Event.Span_begin { name; ts = now_us (); attrs })

let span_end ?(attrs = []) name =
  if Sink.enabled () then
    emit (Event.Span_end { name; ts = now_us (); attrs })

let with_span ?(attrs = []) ?end_attrs name f =
  match Sink.installed () with
  | None -> f ()
  | Some s ->
    s.Sink.emit (Event.Span_begin { name; ts = now_us (); attrs });
    Fun.protect
      ~finally:(fun () ->
        let attrs =
          match end_attrs with
          | None -> []
          | Some g -> g ()
        in
        s.Sink.emit (Event.Span_end { name; ts = now_us (); attrs }))
      f

let instant ?(attrs = []) name =
  if Sink.enabled_full () then
    emit (Event.Instant { name; ts = now_us (); attrs })

let counter name value =
  if Sink.enabled_full () then
    emit (Event.Counter { name; ts = now_us (); value })
