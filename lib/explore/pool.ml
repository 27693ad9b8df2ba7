type worker_stat = {
  worker : int;
  tasks : int;
  busy_us : float;
  idle_us : float;
  counters : (string * int) list;
}

type 'a outcome =
  | Complete of 'a list
  | Interrupted of {
      completed : 'a list;
      reason : Guard.Error.t;
      attempted : int;
    }

let c_tasks = Obs.Metrics.counter "explore.pool.tasks"
let c_maps = Obs.Metrics.counter "explore.pool.maps"
let c_interrupts = Obs.Metrics.counter "explore.pool.interrupts"

let default_jobs () = Domain.recommended_domain_count ()

(* Spawning more domains than the machine has cores makes OCaml 5
   throughput collapse (every minor collection is a stop-the-world
   handshake across all domains), which is exactly the jobs=4 slowdown
   BENCH_3 recorded on a 1-core box.  [jobs] is therefore a request;
   the pool runs [min jobs cores] domains unless the caller explicitly
   oversubscribes (tests that need real extra domains on a small
   machine). *)
let effective_jobs ?(oversubscribe = false) jobs =
  if oversubscribe then jobs
  else Stdlib.max 1 (Stdlib.min jobs (Domain.recommended_domain_count ()))

(* ------------------------------------------------------------------ *)
(* One worker: claims items one at a time off the shared counter, in
   globally ascending order, checking the guard and firing the injection
   site before every claim.  Ascending claims are what make an
   interruption deterministic across jobs counts: when the guard trips at
   item [k] every item below [k] has already been claimed and therefore
   completes before the join.  Results (and the first exception per item)
   are recorded by index so the merge is schedule-independent.  An
   exception escaping the claim path itself — e.g. an injected worker
   crash — is captured per worker, never lost. *)
let worker ~label ~queue ~n ~f ~results ~errors ~guard ~stop w =
  let scope = Obs.Metrics.scope (Printf.sprintf "%s.worker%d" label w) in
  let tasks = ref 0 in
  let crash = ref None in
  (* One local histogram per worker (plain cells, single writer); the
     caller merges them into the registered distribution after the
     join.  [idle_us] is filled in post-join too — a worker cannot
     know how long it out-waited its peers. *)
  let hist = if Obs.Hist.enabled () then Some (Obs.Hist.make ()) else None in
  let rec drain () =
    match Atomic.get stop with
    | Some _ -> ()
    | None ->
      let i = Atomic.fetch_and_add queue 1 in
      if i < n then begin
        match
          if Guard.Inject.armed () then
            Guard.Inject.fire (Printf.sprintf "%s.item:%d" label i);
          Guard.check guard
        with
        | () ->
          Obs.Metrics.incr c_tasks;
          Stdlib.incr tasks;
          (match
             match hist with
             | None -> f i
             | Some h ->
               let t0 = Obs.Clock.now_ns () in
               let v = f i in
               Obs.Hist.record h
                 (Int64.to_int (Int64.sub (Obs.Clock.now_ns ()) t0));
               v
           with
          | v -> results.(i) <- Some v
          | exception e -> errors.(i) <- Some e);
          drain ()
        | exception Guard.Error.Error r when Guard.Error.is_interrupt r ->
          ignore (Atomic.compare_and_set stop None (Some r))
      end
  in
  let t_begin = Obs.Clock.now_us () in
  Obs.Metrics.in_scope scope (fun () ->
    match drain () with () -> () | exception e -> crash := Some e);
  let t_end = Obs.Clock.now_us () in
  ( { worker = w; tasks = !tasks; busy_us = t_end -. t_begin; idle_us = 0.0;
      counters = Obs.Metrics.snapshot scope },
    t_begin,
    t_end,
    !crash,
    hist )

(* Worker spans are emitted from the calling domain after the join, with
   the timestamps recorded by the workers: sinks never see concurrent
   emissions (see Obs.Sink). *)
let emit_worker_spans label stats =
  match Obs.Sink.installed () with
  | None -> ()
  | Some sink ->
    List.iter
      (fun (stat, t_begin, t_end) ->
        let name = Printf.sprintf "%s.worker%d" label stat.worker in
        sink.Obs.Sink.emit
          (Obs.Event.Span_begin { name; ts = t_begin; attrs = [] });
        sink.Obs.Sink.emit
          (Obs.Event.Span_end
             {
               name;
               ts = t_end;
               attrs =
                 [
                   "tasks", Obs.Event.Int stat.tasks;
                   "busy_us", Obs.Event.Int (int_of_float stat.busy_us);
                   "idle_us", Obs.Event.Int (int_of_float stat.idle_us);
                 ];
             }))
      stats

let map_guarded ?jobs ?oversubscribe ?(label = "explore.pool")
    ?(guard = Guard.none) f n =
  let jobs = match jobs with Some j -> j | None -> default_jobs () in
  if jobs < 1 then invalid_arg "Pool.map: jobs < 1";
  if n < 0 then invalid_arg "Pool.map: negative size";
  Obs.Metrics.incr c_maps;
  let workers = effective_jobs ?oversubscribe jobs in
  let results = Array.make n None in
  let errors = Array.make n None in
  let queue = Atomic.make 0 in
  let stop : Guard.Error.t option Atomic.t = Atomic.make None in
  let run = worker ~label ~queue ~n ~f ~results ~errors ~guard ~stop in
  let stats =
    Obs.Trace.with_span
      ~attrs:
        [
          "jobs", Obs.Event.Int jobs;
          "workers", Obs.Event.Int workers;
          "items", Obs.Event.Int n;
        ]
      (label ^ ".map")
    @@ fun () ->
    if workers = 1 then [ run 0 ]
    else begin
      (* The calling domain is worker 0; workers - 1 helpers are spawned
         one at a time so that a spawn failing mid-way can still join
         every domain already running: the queue is starved first, so
         the live helpers drain out promptly, then all are joined and
         the spawn failure is re-raised — no domain is ever leaked. *)
      let spawned = ref [] in
      match
        for k = 1 to workers - 1 do
          if Guard.Inject.armed () then
            Guard.Inject.fire (Printf.sprintf "%s.spawn:%d" label k);
          let d = Domain.spawn (fun () -> run k) in
          spawned := d :: !spawned
        done
      with
      | () ->
        let mine = run 0 in
        mine :: List.map Domain.join (List.rev !spawned)
      | exception e ->
        Atomic.set queue n;
        List.iter (fun d -> ignore (Domain.join d)) !spawned;
        raise e
    end
  in
  let stats =
    List.sort
      (fun (a, _, _, _, _) (b, _, _, _, _) -> compare a.worker b.worker)
      stats
  in
  (* Tail imbalance: a worker idles from its own finish until the last
     worker finishes — computable only here, after every t_end is in. *)
  let t_last =
    List.fold_left
      (fun acc (_, _, t_end, _, _) -> Stdlib.max acc t_end)
      neg_infinity stats
  in
  let stats =
    List.map
      (fun (stat, t_b, t_e, crash, hist) ->
        { stat with idle_us = Stdlib.max 0.0 (t_last -. t_e) },
        t_b, t_e, crash, hist)
      stats
  in
  (* Per-worker task-duration histograms fold into one registered
     distribution; the join above is the happens-before edge Hist
     requires. *)
  List.iter
    (fun (_, _, _, _, hist) ->
      match hist with
      | Some h ->
        Obs.Hist.merge_into ~into:(Obs.Hist.hist (label ^ ".task_ns")) h
      | None -> ())
    stats;
  emit_worker_spans label (List.map (fun (s, b, e, _, _) -> s, b, e) stats);
  let worker_stats = List.map (fun (stat, _, _, _, _) -> stat) stats in
  (* Worker-level crashes, in worker order, so the surfaced one is
     deterministic. *)
  let crashes =
    List.filter_map
      (fun (stat, _, _, crash, _) ->
        Option.map (fun e -> (stat.worker, e)) crash)
      stats
  in
  (* [c] is the length of the contiguous completed prefix.  Everything
     before it succeeded; what stopped item [c] decides the outcome:
     its own error (smallest-index error wins, deterministically), a
     worker crash, or the recorded interruption reason. *)
  let c = ref n in
  (try
     for i = 0 to n - 1 do
       match results.(i) with
       | None ->
         c := i;
         raise Exit
       | Some _ -> ()
     done
   with Exit -> ());
  let c = !c in
  if c = n then begin
    (match crashes with (_, e) :: _ -> raise e | [] -> ());
    ( Complete (List.init n (fun i -> Option.get results.(i))),
      worker_stats )
  end
  else
    match errors.(c) with
    | Some e -> raise e
    | None -> begin
      match crashes with
      | (_, e) :: _ -> raise e
      | [] -> begin
        match Atomic.get stop with
        | Some reason ->
          Obs.Metrics.incr c_interrupts;
          let attempted =
            Array.fold_left
              (fun acc -> function Some _ -> acc + 1 | None -> acc)
              0 results
          in
          ( Interrupted
              {
                completed = List.init c (fun i -> Option.get results.(i));
                reason;
                attempted;
              },
            worker_stats )
        | None -> assert false
      end
    end

let map ?jobs ?oversubscribe ?label f n =
  match map_guarded ?jobs ?oversubscribe ?label f n with
  | Complete vs, _ -> vs
  | Interrupted { reason; _ }, _ ->
    (* without a caller-supplied guard an interruption can only come
       from an injected trip; surface it as the error it is *)
    raise (Guard.Error.Error reason)

(* ------------------------------------------------------------------ *)
(* Persistent worker service *)

module Service = struct
  let c_jobs = Obs.Metrics.counter "explore.pool.service.jobs"
  let c_rejected = Obs.Metrics.counter "explore.pool.service.rejected"

  (* One mailbox per worker: jobs are pinned, never stolen.  The pin is
     the point — a serving session's cached streams carry unsynchronised
     memo tables, so every job touching one session must run on the same
     domain.  Stealing would break that; tail imbalance is acceptable
     for a server (sessions are long-lived, load balancing happens at
     session-placement time). *)
  type mailbox = {
    m_lock : Mutex.t;
    m_cond : Condition.t;
    m_queue : (unit -> unit) Queue.t;
    mutable m_stopping : bool;
  }

  type t = {
    label : string;
    boxes : mailbox array;
    domains : unit Domain.t array;
  }

  let worker_loop box =
    let rec loop () =
      Mutex.lock box.m_lock;
      while Queue.is_empty box.m_queue && not box.m_stopping do
        Condition.wait box.m_cond box.m_lock
      done;
      if Queue.is_empty box.m_queue then begin
        (* stopping and drained *)
        Mutex.unlock box.m_lock;
        ()
      end
      else begin
        let job = Queue.pop box.m_queue in
        Mutex.unlock box.m_lock;
        (* a job must not kill its worker; result/error delivery is the
           submitter's wrapper's business *)
        (try job () with _ -> ());
        loop ()
      end
    in
    loop ()

  let create ?jobs ?(label = "explore.pool.service") () =
    let jobs = match jobs with Some j -> j | None -> default_jobs () in
    if jobs < 1 then invalid_arg "Pool.Service.create: jobs < 1";
    let jobs = effective_jobs jobs in
    let boxes =
      Array.init jobs (fun _ ->
        {
          m_lock = Mutex.create ();
          m_cond = Condition.create ();
          m_queue = Queue.create ();
          m_stopping = false;
        })
    in
    let domains =
      Array.map (fun box -> Domain.spawn (fun () -> worker_loop box)) boxes
    in
    { label; boxes; domains }

  let label t = t.label
  let jobs t = Array.length t.boxes

  let submit t ~worker job =
    if worker < 0 || worker >= Array.length t.boxes then
      invalid_arg "Pool.Service.submit: worker out of range";
    let box = t.boxes.(worker) in
    Mutex.lock box.m_lock;
    let accepted = not box.m_stopping in
    if accepted then begin
      Queue.push job box.m_queue;
      Condition.signal box.m_cond
    end;
    Mutex.unlock box.m_lock;
    Obs.Metrics.incr (if accepted then c_jobs else c_rejected);
    accepted

  let depth t ~worker =
    if worker < 0 || worker >= Array.length t.boxes then
      invalid_arg "Pool.Service.depth: worker out of range";
    let box = t.boxes.(worker) in
    Mutex.lock box.m_lock;
    let d = Queue.length box.m_queue in
    Mutex.unlock box.m_lock;
    d

  let shutdown t =
    Array.iter
      (fun box ->
        Mutex.lock box.m_lock;
        box.m_stopping <- true;
        Condition.broadcast box.m_cond;
        Mutex.unlock box.m_lock)
      t.boxes;
    Array.iter Domain.join t.domains
end
