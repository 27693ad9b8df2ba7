(* VCD identifiers: printable characters from '!' (33) upwards. *)
let vcd_id index = String.make 1 (Char.chr (33 + index))

let sanitize name =
  String.map (fun c -> if c = ' ' then '_' else c) name

let vcd ?(timescale = "1us") trace ~streams =
  let buffer = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buffer) fmt in
  add "$date generated by hem-cpa $end\n";
  add "$timescale %s $end\n" timescale;
  add "$scope module trace $end\n";
  List.iteri
    (fun i name -> add "$var wire 1 %s %s $end\n" (vcd_id i) (sanitize name))
    streams;
  add "$upscope $end\n$enddefinitions $end\n";
  (* merge per-stream arrival lists into (time, change) order; each event
     is a pulse: raise at t, drop at t+1 *)
  let changes = Hashtbl.create 256 in
  let record time text =
    let bucket =
      match Hashtbl.find_opt changes time with
      | Some b -> b
      | None ->
        let b = ref [] in
        Hashtbl.add changes time b;
        b
    in
    bucket := text :: !bucket
  in
  List.iteri
    (fun i name ->
      let id = vcd_id i in
      List.iter
        (fun t ->
          record t ("1" ^ id);
          record (t + 1) ("0" ^ id))
        (Trace.arrivals trace name))
    streams;
  let times =
    Hashtbl.fold (fun t _ acc -> t :: acc) changes [] |> List.sort_uniq compare
  in
  List.iter
    (fun t ->
      add "#%d\n" t;
      List.iter (fun line -> add "%s\n" line) (List.rev !(Hashtbl.find changes t)))
    times;
  Buffer.contents buffer

let arrivals_csv trace ~streams =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "stream,time\n";
  let rows =
    List.concat_map
      (fun name -> List.map (fun t -> t, name) (Trace.arrivals trace name))
      streams
    |> List.stable_sort (fun (a, _) (b, _) -> compare a b)
  in
  List.iter
    (fun (t, name) -> Buffer.add_string buffer (Printf.sprintf "%s,%d\n" name t))
    rows;
  Buffer.contents buffer

let gantt ?(from_time = 0) ?(width = 100) trace ~elements =
  if width < 1 then invalid_arg "Export.gantt: width < 1";
  let buffer = Buffer.create 256 in
  let label_width =
    List.fold_left (fun acc e -> Stdlib.max acc (String.length e)) 0 elements
  in
  let header = Printf.sprintf "%*s " label_width "" in
  Buffer.add_string buffer header;
  Buffer.add_string buffer (Printf.sprintf "t=%d .. %d\n" from_time (from_time + width));
  List.iter
    (fun element ->
      let row = Bytes.make width '.' in
      List.iter
        (fun (start, stop) ->
          let lo = Stdlib.max start from_time
          and hi = Stdlib.min stop (from_time + width) in
          for t = lo to hi - 1 do
            Bytes.set row (t - from_time) '#'
          done)
        (Trace.segments trace element);
      Buffer.add_string buffer
        (Printf.sprintf "%*s %s\n" label_width element (Bytes.to_string row)))
    elements;
  Buffer.contents buffer

let responses_csv trace ~elements =
  let buffer = Buffer.create 256 in
  Buffer.add_string buffer "element,activation,completion,response\n";
  List.iter
    (fun name ->
      (* reconstruct per-instance rows from the recorded pairs *)
      List.iter
        (fun (activation, completion) ->
          Buffer.add_string buffer
            (Printf.sprintf "%s,%d,%d,%d\n" name activation completion
               (completion - activation)))
        (Trace.responses trace name))
    elements;
  Buffer.contents buffer
