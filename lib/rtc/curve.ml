type kind =
  | Upper
  | Lower

(* Beyond [horizon] the curve continues from [samples.(horizon) +
   tail_offset] with slope [rate_num/rate_den] (rounded up for Upper,
   down for Lower).  [tail_offset] carries certification slack: a
   conservative shift of the tail anchor that must not corrupt the exact
   sample at the horizon itself (deviation scans rely on exact
   samples). *)
type t = {
  kind : kind;
  samples : int array;  (* index dt in 0..horizon *)
  rate_num : int;
  rate_den : int;
  tail_offset : int;
}

exception Unstable of string

let create ~kind ~horizon ~tail_rate f =
  if horizon < 1 then invalid_arg "Rtc.Curve.create: horizon < 1";
  let rate_num, rate_den = tail_rate in
  if rate_den < 1 then invalid_arg "Rtc.Curve.create: tail denominator < 1";
  if rate_num < 0 then invalid_arg "Rtc.Curve.create: negative tail rate";
  {
    kind;
    samples = Array.init (horizon + 1) f;
    rate_num;
    rate_den;
    tail_offset = 0;
  }

let of_samples ~kind ~tail_rate ~tail_offset samples =
  if Array.length samples < 2 then
    invalid_arg "Rtc.Curve.of_samples: horizon < 1";
  let rate_num, rate_den = tail_rate in
  if rate_den < 1 then
    invalid_arg "Rtc.Curve.of_samples: tail denominator < 1";
  if rate_num < 0 then invalid_arg "Rtc.Curve.of_samples: negative tail rate";
  { kind; samples = Array.copy samples; rate_num; rate_den; tail_offset }

let kind t = t.kind

let horizon t = Array.length t.samples - 1

let tail_rate t = t.rate_num, t.rate_den

let tail_offset t = t.tail_offset

let ceil_div a b = (a + b - 1) / b

let eval t dt =
  if dt < 0 then invalid_arg "Rtc.Curve.eval: negative window";
  let h = horizon t in
  if dt <= h then t.samples.(dt)
  else begin
    let extra = t.rate_num * (dt - h) in
    let slope =
      match t.kind with
      | Upper -> ceil_div extra t.rate_den
      | Lower -> extra / t.rate_den
    in
    t.samples.(h) + t.tail_offset + slope
  end

(* [eval t] on [0 .. n - 1] in one array: the samples blitted, one tail
   period evaluated, and every later entry one period back plus the
   period's exact integral rise. *)
let tabulate t n =
  let h = horizon t in
  let table = Array.make n 0 in
  Array.blit t.samples 0 table 0 (Stdlib.min n (h + 1));
  for dt = h + 1 to n - 1 do
    table.(dt) <-
      (if dt - h > t.rate_den then table.(dt - t.rate_den) + t.rate_num
       else eval t dt)
  done;
  table

let linear ~kind ~horizon ~rate =
  let num, den = rate in
  let f dt =
    match kind with
    | Upper -> ceil_div (dt * num) den
    | Lower -> dt * num / den
  in
  create ~kind ~horizon ~tail_rate:rate f

(* rate comparison without floats: n1/d1 <= n2/d2 *)
let rate_le (n1, d1) (n2, d2) = n1 * d2 <= n2 * d1

let rec gcd a b = if b = 0 then a else gcd b (a mod b)

let lcm a b = a / gcd a b * b

(* Tail-rate coarsening: re-expressing an Upper tail over a new
   denominator rounds the rate up, a Lower tail down — both strictly
   conservative, so samples and anchor slack stay valid.  The
   deconvolution and the delay scan certify their search range as
   L = horizon + lcm of the two denominators, and tabulate or scan all
   of it; coarsening both tails onto 720 when the lcm exceeds it keeps
   L within horizon + 720 for incommensurate periods.  720 divides
   evenly by every period up to 6, so small denominators stay exact. *)
let coarsen_to den t =
  if den mod t.rate_den = 0 then t
  else
    let num =
      match t.kind with
      | Upper -> ceil_div (t.rate_num * den) t.rate_den
      | Lower -> t.rate_num * den / t.rate_den
    in
    { t with rate_num = num; rate_den = den }

let harmonise a b =
  if lcm a.rate_den b.rate_den <= 720 then a, b
  else coarsen_to 720 a, coarsen_to 720 b

let signed_offset kind slack =
  match kind with Upper -> slack | Lower -> -slack

(* Certified sub/superadditive construction (slack-anchor): for
   subadditive g (Upper) take num = g(window), den = window and
   slack = max over m in 1..window of (g m - ceil (m*num/den)).  By
   induction on x (g(x) <= g(x-den) + g(den), and g(den) = num exactly)
   g(x) <= slack + ceil (x*num/den) for every x >= 1, hence
   g(h+y) <= g(h) + g(y) <= g(h) + slack + ceil (y*num/den): the tail
   anchored at samples(h) + slack is sound at every point past the
   horizon.  Dual with floors for superadditive g (Lower). *)
let certified ~kind ~horizon ~window g =
  if horizon < 1 then invalid_arg "Rtc.Curve.certified: horizon < 1";
  if window < 1 || window > horizon then
    invalid_arg "Rtc.Curve.certified: need 1 <= window <= horizon";
  let num = g window and den = window in
  if num < 0 then invalid_arg "Rtc.Curve.certified: negative rate";
  let slack = ref 0 in
  for m = 1 to window do
    let d =
      match kind with
      | Upper -> g m - ceil_div (m * num) den
      | Lower -> (m * num / den) - g m
    in
    if d > !slack then slack := d
  done;
  {
    kind;
    samples = Array.init (horizon + 1) g;
    rate_num = num;
    rate_den = den;
    tail_offset = signed_offset kind !slack;
  }

let shift_right delay t =
  if delay < 0 then invalid_arg "Rtc.Curve.shift_right: negative delay";
  if t.kind <> Lower then
    invalid_arg "Rtc.Curve.shift_right: shifting an upper curve right is \
                 not conservative";
  if delay = 0 then t
  else begin
    let h = horizon t + delay in
    let samples =
      Array.init (h + 1) (fun dt -> if dt < delay then 0 else eval t (dt - delay))
    in
    (* samples.(h) = eval t (horizon t) exactly, so the shifted tail
       reproduces the original tail point-for-point *)
    { t with samples }
  end

(* Mixed kinds are deliberately allowed: the standard output bound
   alpha' = alpha (/) beta subtracts a *lower* service curve from an
   upper arrival curve.  Re-wrapping beta as Upper-kind first would flip
   its tail rounding from floor to ceil, overstate the service past the
   horizon, and make the output curve optimistic by up to a unit. *)
let min_plus_deconv f g =
  if f.kind <> Upper then
    invalid_arg "Rtc.Curve.min_plus_deconv: Lower numerator";
  let f, g = harmonise f g in
  let rf = f.rate_num, f.rate_den and rg = g.rate_num, g.rate_den in
  if not (rate_le rf rg) then
    raise
      (Unstable
         (Printf.sprintf
            "Rtc.Curve.min_plus_deconv: numerator rate %d/%d exceeds \
             denominator rate %d/%d (the supremum is unbounded)"
            f.rate_num f.rate_den g.rate_num g.rate_den));
  (* With rate f <= rate g, shifting the lag s by one common period l
     changes f(dt+s) - g(s) by (integral rate of f over l) - (integral
     rate of g over l) <= 0 once both legs are past their horizons, so
     the supremum over s is attained within max horizon + l. *)
  let h = Stdlib.max (horizon f) (horizon g) in
  let d = lcm f.rate_den g.rate_den in
  let search_limit = h + d in
  (* f on the windows [0, n), read through its steps: the windows where
     it rises, and its values there.  Past its horizon hf, f is
     base + ceil (num m / den) at hf + m, so its steps there follow
     from num and den without a table. *)
  let n = h + search_limit + 1 in
  let hf = horizon f in
  let num = f.rate_num and den = f.rate_den in
  let base = f.samples.(hf) + f.tail_offset in
  let each_step emit =
    for i = 1 to hf do
      let rise = f.samples.(i) - f.samples.(i - 1) in
      if rise < 0 then
        invalid_arg "Rtc.Curve.min_plus_deconv: decreasing numerator";
      if rise > 0 then emit i f.samples.(i)
    done;
    let junction = base + ceil_div num den in
    if junction < f.samples.(hf) then
      invalid_arg "Rtc.Curve.min_plus_deconv: decreasing numerator";
    if junction > f.samples.(hf) then emit (hf + 1) junction;
    if num >= den then
      for m = 2 to n - 1 - hf do
        emit (hf + m) (base + ceil_div (num * m) den)
      done
    else if num > 0 then begin
      (* below one unit per window each tail step rises by one:
         ceil (num m / den) first reaches c at m = (c - 1) den / num + 1 *)
      let c = ref 2 in
      let m = ref ((den / num) + 1) in
      while hf + !m < n do
        emit (hf + !m) (base + !c);
        incr c;
        m := ((!c - 1) * den / num) + 1
      done
    end
  in
  let n_steps = ref 0 in
  each_step (fun _ _ -> incr n_steps);
  let steps = Array.make !n_steps 0 and vals = Array.make !n_steps 0 in
  let n_steps = ref 0 in
  each_step (fun i v ->
      steps.(!n_steps) <- i;
      vals.(!n_steps) <- v;
      incr n_steps);
  let n_steps = !n_steps in
  (* Replace g by its suffix minimum over the lag range.  With f
     non-decreasing a lag s never beats a later lag s' with
     g s' <= g s, so sup (f (dt + s) - g s) = sup (f (dt + s) - gmin s).
     gmin is non-decreasing, so within a run of equal f values the
     first lag of the run wins: each row only reads s = 0 and the lags
     landing on a step of f.

     The same backward pass builds a linear lower envelope of gmin.
     With [a] and [b] the tail rates of f and g over the common
     denominator [d] (a <= b),
       lg s = min over s' >= s of (d gmin s' - b s') + b s  <= d gmin s
     and, for the k-th step,
       uf k = max over k' >= k of (d f p' - a p') + a p  >= d f p
     with p = steps.(k) and p' = steps.(k') (between two steps f is
     flat and [- a x] falls, so steps carry the maxima).  For every lag
     s' >= s = p - dt,
       d (f (dt + s') - gmin s') <= uf k - lg s + (a - b) (s' - s)
                                 <= uf k - lg s:
     unlike [top] below, this bound follows the operands' slopes, so
     where the rates are close, and the row's maximum sits near its
     start, it falls below that maximum soon after. *)
  let gmin = tabulate g (search_limit + 1) in
  let a = num * (d / den) and b = g.rate_num * (d / g.rate_den) in
  let lg = Array.make (search_limit + 1) 0 in
  let run = ref max_int in
  for s = search_limit downto 0 do
    if s < search_limit && gmin.(s + 1) < gmin.(s) then
      gmin.(s) <- gmin.(s + 1);
    let v = (d * gmin.(s)) - (b * s) in
    if v < !run then run := v;
    lg.(s) <- !run + (b * s)
  done;
  let uf = Array.make n_steps 0 in
  let run = ref min_int in
  for k = n_steps - 1 downto 0 do
    let p = steps.(k) in
    let v = (d * vals.(k)) - (a * p) in
    if v > !run then run := v;
    uf.(k) <- !run + (a * p)
  done;
  (* Candidates are read in ascending order.  Past the k-th step p no
     later candidate can beat [top - gmin (p - dt)], with [top] the
     largest f value in the row's range, nor [(uf k - lg (p - dt)) / d],
     so the scan stops as soon as either bound no longer exceeds the
     best value found (values are integers).  Running maxima here and
     in the delay scan compare ints directly: [Stdlib.max] is the
     polymorphic compare, an external call per step.

     Row dt reads the steps [first, last): [first] is the first step
     past dt and [last] the first past the row's last lag dt + L; both
     only move forward as dt grows, and every read stays in bounds
     (p - dt <= L).  f is vals.(k - 1) from the (k - 1)-th step up to
     the k-th, and f.samples.(0) before the first. *)
  let samples = Array.make (h + 1) 0 in
  let first = ref 0 and last = ref 0 and candidates = ref 0 in
  for dt = 0 to h do
    while !first < n_steps && steps.(!first) <= dt do
      incr first
    done;
    let stop = dt + search_limit in
    while !last < n_steps && steps.(!last) <= stop do
      incr last
    done;
    let top = if !last = 0 then f.samples.(0) else vals.(!last - 1) in
    let best =
      ref ((if !first = 0 then f.samples.(0) else vals.(!first - 1)) - gmin.(0))
    in
    let k = ref !first in
    while !k < !last do
      incr candidates;
      let s = steps.(!k) - dt in
      let gp = gmin.(s) in
      if top - gp <= !best || uf.(!k) - lg.(s) < d * (!best + 1) then
        k := !last
      else begin
        let v = vals.(!k) - gp in
        if v > !best then best := v;
        incr k
      end
    done;
    samples.(dt) <- !best
  done;
  Obs.Metrics.add Stats.deconv_rows (h + 1);
  Obs.Metrics.add Stats.deconv_candidates !candidates;
  (* The tail certificate in closed form.  The result's tail, of f's
     rate num/den from samples.(h) + slack, bounds every row past h when
     slack >= row (h + x) - samples.(h) - ceil (num x / den) for x in
     1 .. den: past h every leg sits in f's tail, so the supremum then
     advances by exactly num per den.  Such a row's legs are
     f (h + x + s) = base + ceil (num (h - hf + x + s) / den), and since
     ceil (num (x + m) / den) - ceil (num x / den) <= ceil (num m / den),
     with equality at x = den, the largest slack is
       base - samples.(h)
       + max over s of (ceil (num (h - hf + s) / den) - gmin s).
     Each term with s >= 1, or with hf < h, is f (h + s) - gmin s, a
     term of row h itself, so it is at most samples.(h).  Only s = 0
     with hf = h is left: there f's tail starts at base, above f h by
     f's own tail offset. *)
  let slack = if hf < h then 0 else base - gmin.(0) - samples.(h) in
  {
    kind = Upper;
    samples;
    rate_num = f.rate_num;
    rate_den = f.rate_den;
    tail_offset = (if slack > 0 then slack else 0);
  }

(* The delay bound accounts for the half-open arrival-window convention
   of this library: [upper dt] covers the arrivals at instants
   [t .. t + dt - 1], so the service available to the last of them by
   relative instant [t + dt - 1 + tau] is [lower (dt - 1 + tau)].

   The search is certified: when rate upper <= rate lower, advancing dt
   by one common period cannot increase the required tau once both
   curves are past their horizons, so the supremum over dt is attained
   within max horizon + lcm of the denominators. *)
let horizontal_deviation ~upper ~lower =
  if not (upper.kind = Upper && lower.kind = Lower) then
    invalid_arg "Rtc.Curve.horizontal_deviation: expected (upper, lower)";
  let upper, lower = harmonise upper lower in
  if
    not
      (rate_le (upper.rate_num, upper.rate_den)
         (lower.rate_num, lower.rate_den))
  then None
  else begin
    let limit =
      Stdlib.max (horizon upper) (horizon lower + 1)
      + lcm upper.rate_den lower.rate_den
    in
    (* tau dt = j dt - (dt - 1) with j dt the first index >= dt - 1
       where lower reaches upper dt.  The demand never falls and the
       start only advances, so j never moves left as dt grows: one
       forward pointer serves every dt.  [capped] records a dt whose
       delay exceeds 8 * limit. *)
    let reads = ref 0 and best = ref 0 and j = ref 0 and demand = ref min_int in
    let dt = ref 1 and capped = ref false in
    while (not !capped) && !dt <= limit do
      let d = eval upper !dt in
      if d < !demand then
        invalid_arg "Rtc.Curve.horizontal_deviation: decreasing upper curve";
      demand := d;
      let start = !dt - 1 in
      if !j < start then j := start;
      let reached = ref false in
      while not (!reached || !capped) do
        if !j - start > 8 * limit then capped := true
        else begin
          incr reads;
          if eval lower !j >= d then reached := true else incr j
        end
      done;
      let tau = !j - start in
      if tau > !best then best := tau;
      incr dt
    done;
    Obs.Metrics.add Stats.delay_scan_steps !reads;
    if !capped then None else Some !best
  end

let pp ppf t =
  let h = horizon t in
  let prefix =
    List.init (Stdlib.min 8 (h + 1)) (fun i -> string_of_int t.samples.(i))
  in
  Format.fprintf ppf "%s curve [%s ...] tail %d/%d%s"
    (match t.kind with Upper -> "upper" | Lower -> "lower")
    (String.concat "; " prefix) t.rate_num t.rate_den
    (if t.tail_offset = 0 then ""
     else Printf.sprintf " (anchor %+d)" t.tail_offset)
