(* Snapshot capture copies scalar totals and histogram summaries into
   plain immutable data so serialisation is divorced from the live
   registries.  JSON output is deterministic: the source lists arrive
   sorted by name and the schema has no optional keys. *)

type hist_summary = {
  h_count : int;
  h_min : int;
  h_max : int;
  h_sum : int;
  h_p50 : int;
  h_p90 : int;
  h_p99 : int;
  h_buckets : (int * int * int) list;
}

type t = {
  counters : (string * int) list;
  gauges : (string * int) list;
  hists : (string * hist_summary) list;
}

let summarise h =
  {
    h_count = Hist.count h;
    h_min = Hist.min_value h;
    h_max = Hist.max_value h;
    h_sum = Hist.sum h;
    h_p50 = Hist.p50 h;
    h_p90 = Hist.p90 h;
    h_p99 = Hist.p99 h;
    h_buckets = Hist.buckets h;
  }

let capture () =
  {
    counters = Metrics.totals ();
    gauges = Metrics.gauges ();
    hists = List.map (fun (k, h) -> k, summarise h) (Hist.all ());
  }

(* --- JSON ------------------------------------------------------------- *)

let int_object entries =
  Json.Obj (List.map (fun (k, v) -> k, Json.Int v) entries)

let hist_value (s : hist_summary) =
  Json.Obj
    [ "count", Json.Int s.h_count; "min", Json.Int s.h_min;
      "max", Json.Int s.h_max; "sum", Json.Int s.h_sum;
      "p50", Json.Int s.h_p50; "p90", Json.Int s.h_p90;
      "p99", Json.Int s.h_p99;
      "buckets",
      Json.Arr
        (List.map
           (fun (lo, hi, c) -> Json.Arr [ Json.Int lo; Json.Int hi; Json.Int c ])
           s.h_buckets) ]

let to_json_value t =
  Json.Obj
    [ "counters", int_object t.counters; "gauges", int_object t.gauges;
      "histograms",
      Json.Obj (List.map (fun (k, s) -> k, hist_value s) t.hists) ]

let to_json t = Json.to_string (to_json_value t) ^ "\n"

(* --- Prometheus text format ------------------------------------------- *)

let sanitise name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let to_prometheus t =
  let buf = Buffer.create 4096 in
  let line name v =
    Buffer.add_string buf name;
    Buffer.add_char buf ' ';
    Buffer.add_string buf (string_of_int v);
    Buffer.add_char buf '\n'
  in
  List.iter
    (fun (k, v) ->
      let name = sanitise k in
      Buffer.add_string buf ("# TYPE " ^ name ^ " counter\n");
      line name v)
    t.counters;
  List.iter
    (fun (k, v) ->
      let name = sanitise k in
      Buffer.add_string buf ("# TYPE " ^ name ^ " gauge\n");
      line name v)
    t.gauges;
  List.iter
    (fun (k, s) ->
      let name = sanitise k in
      Buffer.add_string buf ("# TYPE " ^ name ^ " summary\n");
      let quantile q v =
        Buffer.add_string buf
          (Printf.sprintf "%s{quantile=\"%s\"} %d\n" name q v)
      in
      quantile "0.5" s.h_p50;
      quantile "0.9" s.h_p90;
      quantile "0.99" s.h_p99;
      line (name ^ "_sum") s.h_sum;
      line (name ^ "_count") s.h_count)
    t.hists;
  Buffer.contents buf

let write ~render path t =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (render t))

let write_json path t = write ~render:to_json path t
let write_prometheus path t = write ~render:to_prometheus path t
