type level =
  | Spans
  | Full

type t = {
  emit : Event.t -> unit;
  flush : unit -> unit;
}

let make ?(flush = fun () -> ()) emit = { emit; flush }

(* Atomics so worker domains can read the installed-sink state without a
   data race; installation itself is a main-domain affair (see mli). *)
let current : t option Atomic.t = Atomic.make None
let current_level = Atomic.make Full

let flush_current () =
  match Atomic.get current with
  | Some s -> s.flush ()
  | None -> ()

let install ?(level = Full) s =
  flush_current ();
  Atomic.set current (Some s);
  Atomic.set current_level level

let uninstall () =
  flush_current ();
  Atomic.set current None;
  Atomic.set current_level Full

let installed () = Atomic.get current
let enabled () = Atomic.get current != None
let level () = Atomic.get current_level

let enabled_full () =
  match Atomic.get current with
  | Some _ -> Atomic.get current_level = Full
  | None -> false

let null = make (fun _ -> ())

let memory ?(capacity = 65536) () =
  let q : Event.t Queue.t = Queue.create () in
  let sink =
    make (fun e ->
      Queue.push e q;
      if Queue.length q > capacity then ignore (Queue.pop q))
  in
  sink, fun () -> List.of_seq (Queue.to_seq q)
