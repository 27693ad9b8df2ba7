module Time = Timebase.Time
module Count = Timebase.Count

type t = {
  period : int;
  jitter : int;
  d_min : int;
}

let make ~period ?(jitter = 0) ?(d_min = 1) () =
  if period < 1 then invalid_arg "Sem.make: period < 1";
  if jitter < 0 then invalid_arg "Sem.make: jitter < 0";
  if d_min < 0 then invalid_arg "Sem.make: d_min < 0";
  if d_min > period then
    (* a minimum distance above the period would contradict the long-run
       rate: delta_min would overtake delta_plus *)
    invalid_arg "Sem.make: d_min > period";
  { period; jitter; d_min }

let periodic period = make ~period ()

let delta_min t n =
  if n <= 1 then Time.zero
  else
    Time.of_int
      (Stdlib.max ((n - 1) * t.d_min) (((n - 1) * t.period) - t.jitter))

let delta_plus t n =
  if n <= 1 then Time.zero else Time.of_int (((n - 1) * t.period) + t.jitter)

(* ceil (a / b) for a >= 0, b >= 1 *)
let ceil_div a b = (a + b - 1) / b

let eta_plus t dt =
  if dt <= 0 then Count.zero
  else begin
    (* largest n with delta_min n < dt; both constraints must hold *)
    let by_period = ((dt + t.jitter - 1) / t.period) + 1 in
    let n =
      if t.d_min = 0 then by_period
      else Stdlib.min by_period (((dt - 1) / t.d_min) + 1)
    in
    Count.of_int n
  end

let eta_minus t dt =
  if dt <= 0 then Count.zero
  else begin
    (* least n >= 0 with delta_plus (n+2) > dt, i.e. (n+1)P + J > dt *)
    let n = ceil_div (dt - t.jitter + 1) t.period - 1 in
    Count.of_int (Stdlib.max 0 n)
  end

let to_stream ?name t =
  let name =
    match name with
    | Some n -> n
    | None ->
      Printf.sprintf "sem(P=%d,J=%d,d=%d)" t.period t.jitter t.d_min
  in
  (* compact periodic-tail curves: O(1) evaluation and pseudo-inversion *)
  Stream.periodic_jitter ~name ~period:t.period ~jitter:t.jitter
    ~d_min:t.d_min ()

let fit ?(horizon = 256) s =
  if horizon < 3 then invalid_arg "Sem.fit: horizon < 3";
  (* one packed sweep: dmin.(i) = delta_min (i + 2) *)
  let dmin = Array.make (horizon - 1) 0 in
  Curve.eval_range_into (Stream.delta_min_curve s) ~n0:2 ~len:(horizon - 1)
    ~dst:dmin ~pos:0;
  let dmin_at n =
    let d = dmin.(n - 2) in
    if d = Curve.packed_inf then
      invalid_arg "Sem.fit: stream admits finitely many events";
    d
  in
  (* The slope over the tail half of the sampled range estimates the
     long-run period without the bias of initial bursts; any residual
     over- or under-estimate is absorbed by the jitter term below, which
     keeps the fit conservative on the sampled range. *)
  let mid = Stdlib.max 2 (horizon / 2) in
  let period =
    Stdlib.max 1 ((dmin_at horizon - dmin_at mid) / (horizon - mid))
  in
  (* d / (n - 1) >= d_min whenever d >= d_min * (n - 1), so the division
     only runs when it can lower d_min ([d_min <= small] keeps the
     product from overflowing) *)
  let small = max_int / horizon in
  let rec scan n jitter d_min =
    if n > horizon then jitter, d_min
    else
      let d = dmin_at n in
      let jitter = Int.max jitter (((n - 1) * period) - d) in
      let d_min =
        if d_min <= small && d >= d_min * (n - 1) then d_min
        else Int.min d_min (d / (n - 1))
      in
      scan (n + 1) jitter d_min
  in
  let jitter, d_min = scan 2 0 max_int in
  let d_min =
    if d_min = max_int then Stdlib.min 1 period
    else Stdlib.min period (Stdlib.max 0 d_min)
  in
  make ~period ~jitter ~d_min ()

let equal a b = a.period = b.period && a.jitter = b.jitter && a.d_min = b.d_min

let pp ppf t =
  Format.fprintf ppf "{P=%d; J=%d; d_min=%d}" t.period t.jitter t.d_min
