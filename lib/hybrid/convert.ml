module Time = Timebase.Time
module Stream = Event_model.Stream

type curves = {
  upper : Rtc.Curve.t;
  lower : Rtc.Curve.t;
}

let of_stream ~horizon ~wcet ~bcet stream =
  if bcet < 1 then invalid_arg "Convert.of_stream: bcet < 1";
  if wcet < bcet then invalid_arg "Convert.of_stream: wcet < bcet";
  {
    upper = Rtc.Workload.arrival_upper ~horizon ~wcet stream;
    lower = Rtc.Workload.arrival_lower ~horizon ~bcet stream;
  }

(* Smallest [dt] with [eval curve dt >= target].  Within the horizon the
   samples are monotone, so a binary search is exact.  Past the horizon
   the curve is [anchor + round (x * num / den)] with [anchor =
   samples horizon + tail_offset] and rounding by kind, which inverts in
   closed form:

   - Upper (ceil):  ceil (x*num/den) >= need  iff  x*num > (need-1)*den
   - Lower (floor): floor (x*num/den) >= need iff  x*num >= need*den *)
let first_reaching curve target =
  if target <= 0 then Some 0
  else begin
    let h = Rtc.Curve.horizon curve in
    if Rtc.Curve.eval curve h >= target then begin
      let lo = ref 0 and hi = ref h in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if Rtc.Curve.eval curve mid >= target then hi := mid else lo := mid + 1
      done;
      Some !lo
    end
    else begin
      let anchor = Rtc.Curve.eval curve h + Rtc.Curve.tail_offset curve in
      let num, den = Rtc.Curve.tail_rate curve in
      let need = target - anchor in
      if need <= 0 then Some (h + 1)
      else if num = 0 then None
      else
        let x =
          match Rtc.Curve.kind curve with
          | Rtc.Curve.Upper -> (((need - 1) * den) / num) + 1
          | Rtc.Curve.Lower -> ((need * den) + num - 1) / num
        in
        Some (h + x)
    end
  end

let to_stream_delayed ~name ~wcet ~bcet ~upper ~lower ~lower_delay =
  if wcet < 1 then invalid_arg "Convert.to_stream: wcet < 1";
  if bcet < 1 then invalid_arg "Convert.to_stream: bcet < 1";
  if lower_delay < 0 then invalid_arg "Convert.to_stream: negative lower_delay";
  let delta_min n =
    (* eta_plus' dt = floor (upper dt / wcet); delta_min n is one less
       than the smallest window the event bound lets [n] events into *)
    match first_reaching upper (n * wcet) with
    | Some dt -> Time.of_int (Stdlib.max 0 (dt - 1))
    | None -> Time.Inf
  in
  let delta_plus n =
    (* the smallest window guaranteed to contain [n - 1] events bounds
       the distance of [n] consecutive events from above:
       eta_minus' dt = ceil (lower dt / bcet) >= n - 1
       iff lower dt >= (n - 2) * bcet + 1.  The stream reads n >= 2 only,
       so the target is at least 1, which [lower] delayed by
       [lower_delay] (zero before it) first reaches exactly
       [lower_delay] after [lower] does. *)
    match lower with
    | None -> Time.Inf
    | Some lower -> begin
      match first_reaching lower (((n - 2) * bcet) + 1) with
      | Some dt -> Time.of_int (dt + lower_delay)
      | None -> Time.Inf
    end
  in
  Stream.make ~name ~delta_min ~delta_plus

let to_stream ~name ~wcet ~bcet ~upper ~lower =
  to_stream_delayed ~name ~wcet ~bcet ~upper ~lower ~lower_delay:0
