module Time = Timebase.Time
module Metrics = Obs.Metrics

exception Unbounded of string

let search_cap = 1 lsl 22

(* ------------------------------------------------------------------ *)
(* Observability counters, routed through the Obs.Metrics registry.
   Evaluation work is charged to the scopes that were active when the
   curve was *created* (falling back to whichever scopes are active at
   evaluation time for curves built outside any scope, e.g. shared source
   streams), so lazy evaluations of one analysis's memoized streams never
   pollute another analysis's counts even when the two interleave. *)

let c_closure_evals = Metrics.counter "curve.closure_evals"
let c_memo_hits = Metrics.counter "curve.memo_hits"
let c_periodic_evals = Metrics.counter "curve.periodic_evals"
let c_searches = Metrics.counter "curve.searches"
let c_search_steps = Metrics.counter "curve.search_steps"
let c_spill_probes = Metrics.counter "curve.spill_probes"
let c_batch_evals = Metrics.counter "curve.batch_evals"
let c_batch_probe_count = Metrics.counter "curve.batch_probe_count"

type stats = {
  closure_evals : int;
  memo_hits : int;
  periodic_evals : int;
  searches : int;
  search_steps : int;
  spill_probes : int;
  batch_evals : int;
  batch_probe_count : int;
}

let stats_diff a b =
  {
    closure_evals = a.closure_evals - b.closure_evals;
    memo_hits = a.memo_hits - b.memo_hits;
    periodic_evals = a.periodic_evals - b.periodic_evals;
    searches = a.searches - b.searches;
    search_steps = a.search_steps - b.search_steps;
    spill_probes = a.spill_probes - b.spill_probes;
    batch_evals = a.batch_evals - b.batch_evals;
    batch_probe_count = a.batch_probe_count - b.batch_probe_count;
  }

(* ------------------------------------------------------------------ *)
(* Representation.

   [Closure] memoizes an arbitrary monotone function into a dense int
   array indexed directly by [n] (amortised O(1) append, cache-friendly,
   no boxing of the common finite case); probes beyond [dense_cap] spill
   into a hash table (allocated on the first such probe) so a single deep
   pseudo-inversion probe cannot force a huge allocation.

   [Table] is the derived-curve backend: a packed int buffer indexed by
   [n], filled contiguously on demand by a range kernel that writes
   packed values straight into it (the library's own operators: OR
   merge, Θτ recurrence, inner update, pending stream, AND).  Pointwise
   kernels fill contiguously only below [dense_cap] and evaluate deeper
   probes one at a time into a spill memo, like the closure backend.

   [Periodic] is the compact backend: an explicit finite prefix
   (values at n = 2 .. len+1) plus a periodic tail — after the prefix,
   every [period_events] further events cost [period_time] more.  All
   standard event models, periodic-with-burst patterns and fitted SEMs
   have this shape, so evaluation is O(1) at any [n] and
   pseudo-inversion jumps directly into the right period instead of
   exponential search. *)

(* Per-curve memo bookkeeping shared by the closure and table backends.
   Memo hits are accumulated locally (one field bump: the hit path runs
   millions of times per analysis and a registry update there costs more
   than the memoized lookup itself) and flushed to [c_memo_hits] when
   stats are read. *)
type memo = {
  att : Metrics.attachment;  (* scopes active at the curve's creation *)
  mutable pending_hits : int;
  mutable spill : (int, int) Hashtbl.t option;
      (* packed values of deep probes, allocated on the first one *)
}

type closure = {
  f : int -> Time.t;
  mutable dense : int array;
  c_memo : memo;
}

type kernel = n0:int -> len:int -> dst:int array -> pos:int -> unit

type table = {
  fill : kernel;
  pointwise : bool;
  mutable buf : int array;  (* packed values at n < filled *)
  mutable filled : int;  (* >= 2: indices 0 and 1 hold 0 *)
  t_memo : memo;
}

(* Curves with unflushed hits, one list per domain (like the scope stack
   of [Metrics]); emptied by [flush_pending] on the domain that filled
   it.  A shared list would let one domain's flush drop another's
   enrolled curves, whose hits would then never be counted. *)
let dirty_key : memo list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let flush_pending () =
  let dirty_hits = Domain.DLS.get dirty_key in
  let dirty = !dirty_hits in
  dirty_hits := [];
  List.iter
    (fun h ->
      Metrics.add_attached h.att c_memo_hits h.pending_hits;
      h.pending_hits <- 0)
    dirty

(* First hits since the last flush: attached curves enrol in the dirty
   list and defer (their hits are charged to the creation scopes when the
   flush happens); unattached ones must charge the scopes active *now*,
   so they pay the direct registry price on every hit and never enrol
   (pending stays 0). *)
let[@inline never] count_hits_cold h k =
  if h.att == [] then Metrics.add_attached [] c_memo_hits k
  else begin
    let dirty_hits = Domain.DLS.get dirty_key in
    dirty_hits := h :: !dirty_hits;
    h.pending_hits <- k
  end

let[@inline] count_hits h k =
  let p = h.pending_hits in
  if p > 0 then h.pending_hits <- p + k else count_hits_cold h k

let[@inline] count_hit h = count_hits h 1

let stats_of read =
  flush_pending ();
  {
    closure_evals = read c_closure_evals;
    memo_hits = read c_memo_hits;
    periodic_evals = read c_periodic_evals;
    searches = read c_searches;
    search_steps = read c_search_steps;
    spill_probes = read c_spill_probes;
    batch_evals = read c_batch_evals;
    batch_probe_count = read c_batch_probe_count;
  }

let stats () = stats_of Metrics.total

let stats_in scope = stats_of (Metrics.read scope)

let reset_stats () =
  flush_pending ();
  List.iter Metrics.reset_total
    [
      c_closure_evals; c_memo_hits; c_periodic_evals; c_searches;
      c_search_steps; c_spill_probes; c_batch_evals; c_batch_probe_count;
    ]

type periodic = {
  prefix : int array;  (* values for n = 2 .. length + 1; 0 for n <= 1 *)
  period_events : int;
  period_time : int;
  p_att : Metrics.attachment;
}

type t =
  | Closure of closure
  | Table of table
  | Periodic of periodic
  | Constant of Time.t

let backend = function
  | Closure _ -> `Closure
  | Table _ -> `Table
  | Periodic _ -> `Periodic
  | Constant _ -> `Constant

let periodic_tail = function
  | Periodic p -> Some (Array.length p.prefix, p.period_events, p.period_time)
  | Closure _ | Table _ | Constant _ -> None

(* dense-array memo: [unset] marks a hole, [inf_code] encodes Time.Inf *)
let dense_cap = 1 lsl 15
let unset = min_int
let inf_code = max_int

let encode = function
  | Time.Fin d ->
    if d = unset || d = inf_code then
      invalid_arg "Curve: value out of representable range"
    else d
  | Time.Inf -> inf_code

let decode v = if v = inf_code then Time.Inf else Time.Fin v

let rec next_pow2 k n = if k > n then k else next_pow2 (k * 2) n

(* [arr] with room for index [n], grown to a power of two filled with
   [init] *)
let grown arr ~init n =
  let len = Array.length arr in
  if n < len then arr
  else begin
    let g = Array.make (Stdlib.max 64 (next_pow2 1 n)) init in
    Array.blit arr 0 g 0 len;
    g
  end

(* ------------------------------------------------------------------ *)
(* Packed (int-encoded) evaluation.

   The memos store times order-preservingly encoded as ints ([Fin d] as
   [d], [Inf] as [max_int]); the packed API exposes that encoding so hot
   loops can compare, add and batch time values without allocating a
   [Time.t] per probe.  [packed_inf] compares greater than every finite
   value, so [Stdlib.min] / [Stdlib.max] / [( < )] on packed values agree
   with the [Time] operations as long as finite arithmetic never
   overflows into [max_int] (time values in this codebase are far below
   that). *)

let packed_inf = inf_code

(* A probe at [n >= dense_cap] (or [n < 0]): [compute n] on a miss,
   memoised in the spill table. *)
let spill_probe m n compute =
  Metrics.add_attached m.att c_spill_probes 1;
  let spill =
    match m.spill with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      m.spill <- Some tbl;
      tbl
  in
  match Hashtbl.find_opt spill n with
  | Some v ->
    count_hit m;
    v
  | None ->
    Metrics.add_attached m.att c_closure_evals 1;
    let v = compute n in
    Hashtbl.add spill n v;
    v

let eval_closure_packed c n =
  if n < 0 || n >= dense_cap then spill_probe c.c_memo n (fun n -> encode (c.f n))
  else begin
    c.dense <- grown c.dense ~init:unset n;
    let v = c.dense.(n) in
    if v = unset then begin
      Metrics.add_attached c.c_memo.att c_closure_evals 1;
      let e = encode (c.f n) in
      c.dense.(n) <- e;
      e
    end
    else begin
      count_hit c.c_memo;
      v
    end
  end

(* Make indices [filled .. n] of a table valid with one kernel call. *)
let fill_table tb n =
  let from = tb.filled in
  let len = n + 1 - from in
  tb.buf <- grown tb.buf ~init:0 n;
  tb.fill ~n0:from ~len ~dst:tb.buf ~pos:from;
  Metrics.add_attached tb.t_memo.att c_closure_evals len;
  tb.filled <- n + 1

(* A pointwise probe at [n >= dense_cap]: one kernel call of length 1
   into a scratch cell. *)
let deep_table_packed tb n =
  spill_probe tb.t_memo n (fun n ->
    let cell = [| 0 |] in
    tb.fill ~n0:n ~len:1 ~dst:cell ~pos:0;
    cell.(0))

let eval_table_packed tb n =
  if n < tb.filled then begin
    count_hit tb.t_memo;
    if n <= 1 then 0 else tb.buf.(n)
  end
  else if tb.pointwise && n >= dense_cap then deep_table_packed tb n
  else begin
    fill_table tb n;
    tb.buf.(n)
  end

(* O(1) compact-backend evaluation with no allocation and no per-probe
   metrics traffic (callers charge batch counters instead). *)
let[@inline] eval_periodic_packed p n =
  if n <= 1 then 0
  else begin
    let i = n - 2 in
    let len = Array.length p.prefix in
    if i < len then p.prefix.(i)
    else begin
      let over = i - (len - 1) in
      let steps = (over + p.period_events - 1) / p.period_events in
      p.prefix.(i - (steps * p.period_events)) + (steps * p.period_time)
    end
  end

let eval_packed t n =
  match t with
  | Closure c -> eval_closure_packed c n
  | Table tb -> eval_table_packed tb n
  | Periodic p ->
    Metrics.add_attached p.p_att c_periodic_evals 1;
    eval_periodic_packed p n
  | Constant v -> encode v

let eval t n =
  match t with
  | Constant v -> v
  | Closure _ | Table _ | Periodic _ -> decode (eval_packed t n)

let attachment_of = function
  | Closure c -> c.c_memo.att
  | Table tb -> tb.t_memo.att
  | Periodic p -> p.p_att
  | Constant _ -> []

let[@inline] count_batch t len =
  let att = attachment_of t in
  Metrics.add_attached att c_batch_evals 1;
  Metrics.add_attached att c_batch_probe_count len

(* [dst.(pos + i) <- eval (n0 + i)] for [i < len] on the compact
   backend: one division locates [n0], then the walk steps along the
   prefix and wraps back one period (adding [period_time]) at its end. *)
let periodic_range_into p ~n0 ~len ~dst ~pos =
  let plen = Array.length p.prefix in
  let lead = Stdlib.min len (Stdlib.max 0 (2 - n0)) in
  Array.fill dst pos lead 0;
  if lead < len then begin
    let i = n0 + lead - 2 in
    let steps =
      if i < plen then 0
      else (i - (plen - 1) + p.period_events - 1) / p.period_events
    in
    let idx = ref (i - (steps * p.period_events))
    and base = ref (steps * p.period_time) in
    for k = pos + lead to pos + len - 1 do
      dst.(k) <- p.prefix.(!idx) + !base;
      if !idx = plen - 1 then begin
        idx := plen - p.period_events;
        base := !base + p.period_time
      end
      else incr idx
    done
  end

(* Table range: fill what is missing (contiguously, or below [dense_cap]
   for pointwise kernels, whose deeper cells are probed one at a time),
   then copy; cells that were already filled count as memo hits. *)
let table_range_into tb ~n0 ~len ~dst ~pos =
  let hi = n0 + len - 1 in
  let dense_hi = if tb.pointwise then Stdlib.min hi (dense_cap - 1) else hi in
  (* cells n0 + lead .. dense_hi come from the buffer *)
  let lead = Stdlib.min len (Stdlib.max 0 (2 - n0)) in
  let dense_len = Stdlib.max 0 (dense_hi + 1 - (n0 + lead)) in
  let hits = lead + Stdlib.max 0 (Stdlib.min dense_len (tb.filled - n0 - lead)) in
  if hits > 0 then count_hits tb.t_memo hits;
  Array.fill dst pos lead 0;
  if dense_len > 0 then begin
    if dense_hi >= tb.filled then fill_table tb dense_hi;
    Array.blit tb.buf (n0 + lead) dst (pos + lead) dense_len
  end;
  for i = lead + dense_len to len - 1 do
    dst.(pos + i) <- deep_table_packed tb (n0 + i)
  done

(* Fill [dst.(pos + i) <- eval t (n0 + i)] (packed) for [i < len].  One
   batch-counter bump covers the whole sweep; the compact backend pays no
   per-probe metrics or allocation at all, the memo backends still
   charge each memo miss so "work actually done" stays exact. *)
let eval_range_into t ~n0 ~len ~dst ~pos =
  if len < 0 || pos < 0 || pos + len > Array.length dst then
    invalid_arg "Curve.eval_range_into: bad range";
  if len > 0 then begin
    count_batch t len;
    match t with
    | Periodic p -> periodic_range_into p ~n0 ~len ~dst ~pos
    | Table tb -> table_range_into tb ~n0 ~len ~dst ~pos
    | Closure c ->
      for i = 0 to len - 1 do
        dst.(pos + i) <- eval_closure_packed c (n0 + i)
      done
    | Constant v -> Array.fill dst pos len (encode v)
  end

(* Batched probe sweep: one vectorised pass over an arbitrary (possibly
   unsorted, possibly duplicated) probe array.  Results are packed. *)
let eval_batch t probes =
  let len = Array.length probes in
  if len = 0 then [||]
  else begin
    count_batch t len;
    match t with
    | Periodic p -> Array.map (fun n -> eval_periodic_packed p n) probes
    | Table tb -> Array.map (fun n -> eval_table_packed tb n) probes
    | Closure c -> Array.map (fun n -> eval_closure_packed c n) probes
    | Constant v -> Array.make len (encode v)
  end

(* ------------------------------------------------------------------ *)
(* Constructors *)

let memo () = { att = Metrics.attach (); pending_hits = 0; spill = None }

let make f = Closure { f; dense = [||]; c_memo = memo () }

let table ?(pointwise = false) fill =
  Table
    {
      fill;
      pointwise;
      buf = [||];
      filled = 2;
      t_memo = memo ();
    }

let constant v = Constant v

let periodic ~prefix ~period_events ~period_time =
  if period_events < 1 then invalid_arg "Curve.periodic: period_events < 1";
  if period_time < 0 then invalid_arg "Curve.periodic: negative period_time";
  if Array.length prefix < period_events then
    invalid_arg "Curve.periodic: prefix shorter than period_events";
  if Array.exists (fun v -> v < 0) prefix then
    invalid_arg "Curve.periodic: negative distance";
  let len = Array.length prefix in
  for i = 1 to len - 1 do
    if prefix.(i) < prefix.(i - 1) then
      invalid_arg "Curve.periodic: non-monotone prefix"
  done;
  let t =
    {
      prefix = Array.copy prefix;
      period_events;
      period_time;
      p_att = Metrics.attach ();
    }
  in
  (* the recurrence must preserve monotonicity across and beyond the
     prefix boundary; checking two full periods past the prefix pins it
     down forever (eval (n + period_events) = eval n + period_time) *)
  for n = 2 to len + (2 * period_events) + 3 do
    if eval_periodic_packed t n < eval_periodic_packed t (n - 1) then
      invalid_arg "Curve.periodic: recurrence breaks monotonicity"
  done;
  Periodic t

(* Compact-curve certifier.  [t] is read into a growing buffer one
   [eval_range_into] call per candidate, so a certificate found early
   costs only the values up to it.  A window cell at [packed_inf] fails
   the check: a periodic curve is finite everywhere. *)
let periodic_from t ~start ~window ~cap ~period_events ~period_time =
  let buf = ref [||] and filled = ref 0 in
  (* make indices 0 .. n of [buf] valid *)
  let ensure n =
    if n >= !filled then begin
      buf := grown !buf ~init:0 n;
      eval_range_into t ~n0:!filled ~len:(n + 1 - !filled) ~dst:!buf
        ~pos:!filled;
      filled := n + 1
    end
  in
  let rec attempt p =
    if p > cap then None
    else begin
      ensure (p + window);
      let v = !buf in
      let holds = ref true in
      for n = p + 1 to p + window do
        if v.(n) = inf_code || v.(n) <> v.(n - period_events) + period_time
        then holds := false
      done;
      if not !holds then attempt (p + window)
      else
        let prefix = Array.sub v 2 (p - 1) in
        match periodic ~prefix ~period_events ~period_time with
        | curve -> Some curve
        | exception Invalid_argument _ -> None
    end
  in
  attempt start

let clamp_low t =
  match t with
  | Periodic _ | Table _ -> t (* already 0 for n <= 1 by construction *)
  | Constant v when Time.equal v Time.zero -> t
  | Closure _ | Constant _ ->
    make (fun n -> if n <= 1 then Time.zero else eval t n)

(* ------------------------------------------------------------------ *)
(* Pseudo-inversion searches *)

(* Exponential search for the first index in [lo, cap] satisfying [pred],
   followed by binary search.  [pred] must be monotone (false then true). *)
(* The probe count is threaded through the loops and flushed to the
   registry once per search: a per-probe registry bump would dominate the
   search loop itself. *)
let first_satisfying ~lo pred =
  Metrics.incr c_searches;
  (* invariant on bisect entry: not (pred lo) && pred hi *)
  let rec bisect steps lo hi =
    if hi - lo <= 1 then begin
      Metrics.add c_search_steps steps;
      hi
    end
    else
      let mid = lo + ((hi - lo) / 2) in
      if pred mid then bisect (steps + 1) lo mid else bisect (steps + 1) mid hi
  in
  let rec widen steps prev cur =
    if cur > search_cap then begin
      Metrics.add c_search_steps steps;
      raise (Unbounded "Curve: search cap exceeded")
    end
    else if pred cur then bisect (steps + 1) prev cur
    else widen (steps + 1) cur (cur * 2)
  in
  if pred lo then begin
    Metrics.add c_search_steps 1;
    lo
  end
  else widen 1 lo (Stdlib.max 2 (lo * 2))

(* ------------------------------------------------------------------ *)
(* Compact-backend search: the least n >= 2 with eval n >= limit (or
   > limit when [strict]), computed arithmetically: locate the period
   block containing the answer, then binary-search the (at most
   period_events wide) window inside it.

   [bfirst_packed] is the first index in [lo, hi] with
   [prefix.(i) + base] satisfying the limit; it requires the value at
   [hi] to satisfy.  A module-level
   recursion over plain ints (no closure, no step ref) so the search
   allocates nothing; [steps] is the probe count so far, flushed to the
   step counter when the search bottoms out. *)
let rec bfirst_packed att prefix ~strict ~limit ~base ~steps lo hi =
  if lo >= hi then begin
    Metrics.add_attached att c_search_steps steps;
    hi
  end
  else begin
    let mid = (lo + hi) / 2 in
    let v = prefix.(mid) + base in
    let ok = if strict then v > limit else v >= limit in
    if ok then
      bfirst_packed att prefix ~strict ~limit ~base ~steps:(steps + 1) lo mid
    else
      bfirst_packed att prefix ~strict ~limit ~base ~steps:(steps + 1) (mid + 1)
        hi
  end

let periodic_first_packed p ~strict limit =
  Metrics.add_attached p.p_att c_searches 1;
  let len = Array.length p.prefix in
  let top = p.prefix.(len - 1) in
  let top_ok = if strict then top > limit else top >= limit in
  if top_ok then
    (* steps starts at 1: the top probe above *)
    bfirst_packed p.p_att p.prefix ~strict ~limit ~base:0 ~steps:1 0 (len - 1)
    + 2
  else if p.period_time <= 0 then begin
    Metrics.add_attached p.p_att c_search_steps 1;
    raise (Unbounded "Curve: periodic tail never reaches limit")
  end
  else begin
    (* smallest block s >= 1 whose largest value top + s * period_time
       satisfies; earlier blocks are entirely below the limit *)
    let need = limit - top in
    let s =
      if strict then (need / p.period_time) + 1
      else (need + p.period_time - 1) / p.period_time
    in
    let s = Stdlib.max 1 s in
    let base = s * p.period_time in
    let j =
      bfirst_packed p.p_att p.prefix ~strict ~limit ~base ~steps:1
        (len - p.period_events) (len - 1)
    in
    j + (s * p.period_events) + 2
  end

(* [count_lt] with a packed limit and a verified lower bound, so
   convergence loops that re-probe the same curves with monotonically
   growing windows (busy-window interference, EDF demand scans) neither
   allocate a [Time.t] per probe nor restart the exponential search from
   scratch each iteration.  Callers must guarantee [lo >= 1] and, when
   [lo > 1], [eval t (lo - 1) < limit] (true whenever [lo - 1] is a
   previous [count_lt_packed] answer for a limit [<=] the current one —
   arrival counts grow monotonically with the window). *)
let count_lt_packed t ~lo ~limit =
  if limit <= 0 then invalid_arg "Curve.count_lt: limit <= 0";
  if lo < 1 then invalid_arg "Curve.count_lt_packed: lo < 1";
  match t with
  | Periodic p ->
    if limit >= inf_code then
      (* a periodic-tail curve is finite everywhere, so the count below
         an infinite limit is unbounded *)
      raise (Unbounded "Curve.count_lt: infinite limit on a finite curve");
    (* arithmetic location is already O(log period); the hint is not
       needed to stay cheap *)
    periodic_first_packed p ~strict:false limit - 1
  | Closure _ | Table _ | Constant _ ->
    (* largest n with eval n < limit = (first n >= lo with
       eval n >= limit) - 1 *)
    first_satisfying ~lo (fun n -> eval_packed t n >= limit) - 1

let count_lt t limit =
  if Time.(limit <= Time.zero) then invalid_arg "Curve.count_lt: limit <= 0";
  count_lt_packed t ~lo:1 ~limit:(encode limit)

let first_gt t ~offset limit =
  match t, limit with
  | Periodic _, Time.Inf ->
    raise (Unbounded "Curve.first_gt: infinite limit on a finite curve")
  | Periodic p, Time.Fin lim ->
    if lim < 0 then 0 (* eval (0 + offset) >= 0 > limit already *)
    else Stdlib.max 0 (periodic_first_packed p ~strict:true lim - offset)
  | (Closure _ | Table _ | Constant _), _ ->
    let limit = encode limit in
    first_satisfying ~lo:0 (fun n -> eval_packed t (n + offset) > limit)
