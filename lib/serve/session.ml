module Engine = Cpa_system.Engine
module Spec = Cpa_system.Spec

type t = {
  id : string;
  worker : int;
  scope : Obs.Metrics.scope;
  mutable edit_count : int;
  mutable spec : Spec.t;
  mutable warm : Engine.warm option;
  mutable last_outcomes : Engine.element_outcome list;
  mutable last_used : float;
  mutable inflight : int;
  mutable requests : int;
}

type table = {
  lock : Mutex.t;
  sessions : (string, t) Hashtbl.t;
  max_sessions : int;
  jobs : int;
  mutable next_id : int;
  mutable evicted : int;
}

let c_opened = Obs.Metrics.counter "serve.sessions.opened"
let c_evicted = Obs.Metrics.counter "serve.sessions.evicted"

let table ~max_sessions ~jobs () =
  if max_sessions < 1 then invalid_arg "Session.table: max_sessions < 1";
  if jobs < 1 then invalid_arg "Session.table: jobs < 1";
  {
    lock = Mutex.create ();
    sessions = Hashtbl.create 16;
    max_sessions;
    jobs;
    next_id = 1;
    evicted = 0;
  }

let locked tbl f =
  Mutex.lock tbl.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock tbl.lock) f

(* Deterministic pin: all jobs of one session land on one worker domain,
   which is what keeps its unsynchronised curve memos single-domain. *)
let pin_worker tbl id = Hashtbl.hash id mod tbl.jobs

let evict_lru tbl =
  let victim =
    Hashtbl.fold
      (fun _ s acc ->
        if s.inflight > 0 then acc
        else
          match acc with
          | Some best when best.last_used <= s.last_used -> acc
          | _ -> Some s)
      tbl.sessions None
  in
  match victim with
  | None -> ()
  | Some s ->
    Hashtbl.remove tbl.sessions s.id;
    tbl.evicted <- tbl.evicted + 1;
    Obs.Metrics.incr c_evicted

(* the new session is inserted already checked out, in the same critical
   section: a concurrent register cannot evict it before its warming job
   is dispatched *)
let register tbl ~spec =
  locked tbl (fun () ->
    if Hashtbl.length tbl.sessions >= tbl.max_sessions then evict_lru tbl;
    if Hashtbl.length tbl.sessions >= tbl.max_sessions then
      Error "session table full and every session is busy"
    else begin
      let id = Printf.sprintf "s-%d" tbl.next_id in
      tbl.next_id <- tbl.next_id + 1;
      let s =
        {
          id;
          worker = pin_worker tbl id;
          scope = Obs.Metrics.scope ("serve.session:" ^ id);
          edit_count = 0;
          spec;
          warm = None;
          last_outcomes = [];
          last_used = Unix.gettimeofday ();
          inflight = 1;
          requests = 1;
        }
      in
      Hashtbl.replace tbl.sessions id s;
      Obs.Metrics.incr c_opened;
      Ok s
    end)

let checkout tbl id =
  locked tbl (fun () ->
    match Hashtbl.find_opt tbl.sessions id with
    | None -> None
    | Some s ->
      s.inflight <- s.inflight + 1;
      s.requests <- s.requests + 1;
      s.last_used <- Unix.gettimeofday ();
      Some s)

let checkin tbl s =
  locked tbl (fun () -> s.inflight <- Stdlib.max 0 (s.inflight - 1))

let remove tbl id = locked tbl (fun () -> Hashtbl.remove tbl.sessions id)
let count tbl = locked tbl (fun () -> Hashtbl.length tbl.sessions)
let evictions tbl = locked tbl (fun () -> tbl.evicted)
