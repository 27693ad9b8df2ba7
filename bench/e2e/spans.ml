(* Bench-side span recorder for traced runs.  Spans are taken around the
   benchmark's own calls into each layer's public functions (nothing in
   the library is instrumented), kept in memory, and written at exit as
   a Chrome trace.  Recording is off unless [enable] was called, and a
   disabled [span] is a direct call. *)

type span = {
  id : int;
  name : string;
  start_ns : int64;
  end_ns : int64;
  parent : int;  (** 0 = root *)
  req : int;  (** request / item id shared by the spans of one operation *)
  thread : int;
}

let on = Atomic.make false
let next_id = Atomic.make 1
let lock = Mutex.create ()
let recorded : span list ref = ref []

(* The innermost open span of each recording thread, with its request
   id; the serving workload records from two system threads of one
   domain, so this is keyed by thread rather than held per domain. *)
let current : (int, int * int) Hashtbl.t = Hashtbl.create 4

let reset () =
  Mutex.protect lock (fun () ->
    recorded := [];
    Hashtbl.reset current)
let enable () = Atomic.set on true
let disable () = Atomic.set on false

let span ?req name f =
  if not (Atomic.get on) then f ()
  else begin
    let thread = Thread.id (Thread.self ()) in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent, parent_req =
      Mutex.protect lock (fun () ->
        let parent, parent_req =
          Option.value (Hashtbl.find_opt current thread) ~default:(0, 0)
        in
        Hashtbl.replace current thread (id, Option.value req ~default:parent_req);
        parent, parent_req)
    in
    let req = Option.value req ~default:parent_req in
    let start_ns = Timing.now_ns () in
    let finish () =
      let s = { id; name; start_ns; end_ns = Timing.now_ns (); parent; req; thread } in
      Mutex.protect lock (fun () ->
        Hashtbl.replace current thread (parent, parent_req);
        recorded := s :: !recorded)
    in
    Fun.protect ~finally:finish f
  end

let all () = Mutex.protect lock (fun () -> List.rev !recorded)

let duration_us s = Int64.to_float (Int64.sub s.end_ns s.start_ns) /. 1e3

(* Durations (us) of every span called [name]. *)
let durations name =
  List.filter_map
    (fun s -> if String.equal s.name name then Some (duration_us s) else None)
    (all ())

(* Per-name count, total and self time (total minus the time covered by
   direct children), sorted by self time. *)
let self_times () =
  let spans = all () in
  let child_us = Hashtbl.create 64 in
  List.iter
    (fun s ->
      if s.parent <> 0 then
        Hashtbl.replace child_us s.parent
          (duration_us s
          +. Option.value (Hashtbl.find_opt child_us s.parent) ~default:0.0))
    spans;
  let by_name = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let total = duration_us s in
      let self =
        total -. Option.value (Hashtbl.find_opt child_us s.id) ~default:0.0
      in
      let n, t, sf =
        Option.value (Hashtbl.find_opt by_name s.name) ~default:(0, 0.0, 0.0)
      in
      Hashtbl.replace by_name s.name (n + 1, t +. total, sf +. self))
    spans;
  Hashtbl.fold (fun name (n, t, sf) acc -> (name, n, t, sf) :: acc) by_name []
  |> List.sort (fun (_, _, _, a) (_, _, _, b) -> compare b a)

let chrome_json () =
  let spans = all () in
  let t0 =
    List.fold_left (fun acc s -> min acc s.start_ns) Int64.max_int spans
  in
  let us t = Int64.to_float (Int64.sub t t0) /. 1e3 in
  let buf = Buffer.create (128 * (List.length spans + 1)) in
  Buffer.add_string buf "{\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string buf ",\n";
      Printf.bprintf buf
        "{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\
         \"args\":{\"id\":%d,\"parent\":%d,\"req\":%d}}"
        s.name s.thread (us s.start_ns) (duration_us s) s.id s.parent s.req)
    spans;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
