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

let tail_min a b = if rate_le a b then a else b

let tail_max a b = if rate_le a b then b else a

(* Tail-rate coarsening: re-expressing an Upper tail over a new
   denominator rounds the rate up, a Lower tail down — both strictly
   conservative, so samples and anchor slack stay valid.  Binary
   operations harmonise their arguments when the lcm of the
   denominators would make certification probes (and certified search
   limits) too wide; 720 divides evenly by every period up to 6 and
   keeps every probe loop small. *)
let coarsen_to den t =
  if den mod t.rate_den = 0 then t
  else
    let num =
      match t.kind with
      | Upper -> ceil_div (t.rate_num * den) t.rate_den
      | Lower -> t.rate_num * den / t.rate_den
    in
    { t with rate_num = num; rate_den = den }

let harmonise ?(cap = 720) a b =
  if lcm a.rate_den b.rate_den <= cap then a, b
  else coarsen_to cap a, coarsen_to cap b

(* Sum of two rates expressed over the lcm of the denominators, so that
   one combined period advances the tail by an exact integer. *)
let tail_add (n1, d1) (n2, d2) =
  let l = lcm d1 d2 in
  (n1 * (l / d1)) + (n2 * (l / d2)), l

(* Certified tail anchor: given witness functions [ws] that are exactly
   pseudo-periodic beyond [h] with period [l] (each advances by its own
   integral rate per [l], at least [rate] for Upper / at most [rate] for
   Lower), a tail of slope [rate] anchored at [anchor +/- slack] bounds
   every witness for all dt > h.  [l] must be a multiple of the rate
   denominator. *)
let probe_slack ~kind ~h ~l ~rate:(num, den) ~anchor ws =
  let slack = ref 0 in
  List.iter
    (fun w ->
      for x = 1 to l do
        let d =
          match kind with
          | Upper -> w (h + x) - anchor - ceil_div (x * num) den
          | Lower -> anchor + (x * num / den) - w (h + x)
        in
        if d > !slack then slack := d
      done)
    ws;
  !slack

let signed_offset kind slack =
  match kind with Upper -> slack | Lower -> -slack

type op =
  | Op_add
  | Op_min
  | Op_max

(* Pointwise combination with a certified tail.  The result samples the
   exact pointwise combination up to the larger horizon; the tail is
   certified against witnesses that provably dominate (Upper) or are
   dominated by (Lower) the combination beyond it:
   - add: the combination itself (exactly pseudo-periodic beyond h);
   - Upper min / Lower max: the curve whose rate was selected (the
     result never exceeds / never falls below it asymptotically);
   - Upper max / Lower min: both curves (the result must stay above /
     below each of them). *)
let combine op a b =
  if a.kind <> b.kind then invalid_arg "Rtc.Curve.combine: kind mismatch";
  let a, b = harmonise a b in
  let f =
    match op with
    | Op_add -> ( + )
    | Op_min -> Stdlib.min
    | Op_max -> Stdlib.max
  in
  let ra = a.rate_num, a.rate_den and rb = b.rate_num, b.rate_den in
  let rate =
    match op with
    | Op_add -> tail_add ra rb
    | Op_min -> tail_min ra rb
    | Op_max -> tail_max ra rb
  in
  let l = lcm a.rate_den b.rate_den in
  let h = Stdlib.max (horizon a) (horizon b) in
  let c dt = f (eval a dt) (eval b dt) in
  let selected = if rate == ra then a else b in
  let witnesses =
    match op, a.kind with
    | Op_add, _ -> [ c ]
    | Op_min, Upper | Op_max, Lower -> [ eval selected ]
    | Op_max, Upper | Op_min, Lower -> [ eval a; eval b ]
  in
  let anchor = c h in
  let slack = probe_slack ~kind:a.kind ~h ~l ~rate ~anchor witnesses in
  {
    kind = a.kind;
    samples = Array.init (h + 1) c;
    rate_num = fst rate;
    rate_den = snd rate;
    tail_offset = signed_offset a.kind slack;
  }

let add a b = combine Op_add a b

let min a b = combine Op_min a b

let max a b = combine Op_max a b

(* Generic pointwise combination.  Samples through the larger horizon
   (the gap region a shorter curve used to cover with its tail is now
   exact) and audits the declared tail against the combination over two
   combined periods.  This is certified only when the combination is
   pseudo-periodic with the declared rate beyond the common horizon —
   true for the [add]/[min]/[max] instances, which use provably
   sufficient witnesses instead; prefer those. *)
let map2 f tail a b =
  if a.kind <> b.kind then invalid_arg "Rtc.Curve.map2: kind mismatch";
  let a, b = harmonise a b in
  let rate = tail (a.rate_num, a.rate_den) (b.rate_num, b.rate_den) in
  let l0 = lcm a.rate_den b.rate_den in
  let l = l0 * ceil_div (snd rate) (gcd l0 (snd rate)) in
  let h = Stdlib.max (horizon a) (horizon b) in
  let c dt = f (eval a dt) (eval b dt) in
  let anchor = c h in
  let slack = probe_slack ~kind:a.kind ~h ~l:(2 * l) ~rate ~anchor [ c ] in
  {
    kind = a.kind;
    samples = Array.init (h + 1) c;
    rate_num = fst rate;
    rate_den = snd rate;
    tail_offset = signed_offset a.kind slack;
  }

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

let min_plus_conv f g =
  if f.kind <> g.kind then invalid_arg "Rtc.Curve.min_plus_conv: kind mismatch";
  (* the Lower branch's horizon grows by two lcm periods, and every
     sample costs a linear scan: keep the combined period tight *)
  let f, g = harmonise ~cap:240 f g in
  let value dt =
    let rec scan s best =
      if s > dt then best
      else scan (s + 1) (Stdlib.min best (eval f s + eval g (dt - s)))
    in
    scan 1 (eval f 0 + eval g dt)
  in
  let rf = f.rate_num, f.rate_den and rg = g.rate_num, g.rate_den in
  let ((num, den) as rate) = tail_min rf rg in
  match f.kind with
  | Upper ->
    (* conv(dt) <= f 0 + g_w dt where g_w is the slower-rate argument:
       a linear-tail witness with exactly the selected rate *)
    let h = Stdlib.max (horizon f) (horizon g) in
    let w = if rate == rf then f else g in
    let witness dt = eval (if w == f then g else f) 0 + eval w dt in
    let anchor = value h in
    let slack = probe_slack ~kind:Upper ~h ~l:den ~rate ~anchor [ witness ] in
    {
      kind = Upper;
      samples = Array.init (h + 1) value;
      rate_num = num;
      rate_den = den;
      tail_offset = slack;
    }
  | Lower ->
    (* For dt >= hf + hg + 2l the minimising split of dt + l has one leg
       at least l beyond its curve's horizon, where retracting that leg
       by l lowers it by exactly its integral per-period rate >= the
       selected rate: conv(dt + l) >= conv(dt) + l*num/den.  One period
       of probes past such a horizon therefore certifies the whole
       tail. *)
    let l = lcm f.rate_den g.rate_den in
    let h = horizon f + horizon g + (2 * l) in
    let anchor = value h in
    let slack = probe_slack ~kind:Lower ~h ~l ~rate ~anchor [ value ] in
    {
      kind = Lower;
      samples = Array.init (h + 1) value;
      rate_num = num;
      rate_den = den;
      tail_offset = -slack;
    }

(* Mixed kinds are deliberately allowed: the standard output bound
   alpha' = alpha (/) beta subtracts a *lower* service curve from an
   upper arrival curve.  Re-wrapping beta as Upper-kind first would flip
   its tail rounding from floor to ceil, overstate the service past the
   horizon, and make the output curve optimistic by up to a unit. *)
let min_plus_deconv f g =
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
  let search_limit = h + lcm f.rate_den g.rate_den in
  (* Beyond h every f-leg sits past f's horizon, so the whole supremum
     advances by exactly rate_num per rate_den of f: probing one f-period
     past h certifies the tail.  The rows 0 .. h are the samples, the
     rows h + 1 .. h + rate_den those probes, all computed on tabulated
     operands. *)
  let last = h + f.rate_den in
  let fs = Array.init (last + search_limit + 1) (eval f) in
  (* Replace g by its suffix minimum over the lag range.  With f
     non-decreasing a lag s never beats a later lag s' with
     g s' <= g s, so sup (f (dt + s) - g s) = sup (f (dt + s) - gmin s).
     gmin is non-decreasing, so within a run of equal f values the
     first lag of the run wins: each row only reads s = 0 and the lags
     landing on a step of fs. *)
  let gmin = Array.init (search_limit + 1) (eval g) in
  for s = search_limit - 1 downto 0 do
    if gmin.(s + 1) < gmin.(s) then gmin.(s) <- gmin.(s + 1)
  done;
  let n = Array.length fs in
  let n_steps = ref 0 in
  for i = 1 to n - 1 do
    let d = fs.(i) - fs.(i - 1) in
    if d < 0 then
      invalid_arg "Rtc.Curve.min_plus_deconv: decreasing numerator";
    if d > 0 then incr n_steps
  done;
  let steps = Array.make !n_steps 0 and n_steps = ref 0 in
  for i = 1 to n - 1 do
    if fs.(i) > fs.(i - 1) then begin
      steps.(!n_steps) <- i;
      incr n_steps
    end
  done;
  let n_steps = !n_steps in
  (* Candidates are read in ascending order.  Past a step p no later
     candidate can beat [top - gmin (p - dt)], with [top] the largest f
     value in the row's range, so the scan stops as soon as that bound
     no longer exceeds the best value found.  Running maxima here and in
     the deviation scans compare ints directly: [Stdlib.max] is the
     polymorphic compare, an external call per step. *)
  let rec scan ~dt ~stop ~top k best =
    if k >= n_steps then best
    else begin
      let p = steps.(k) in
      if p > stop then best
      else begin
        let gp = gmin.(p - dt) in
        if top - gp <= best then best
        else begin
          let v = fs.(p) - gp in
          scan ~dt ~stop ~top (k + 1) (if v > best then v else best)
        end
      end
    end
  in
  (* [first] is the first step past dt; it only moves forward, so rows
     must be computed in ascending dt (Array.init applies its function in
     order).  Every read stays in bounds: dt <= last and
     p - dt <= search_limit. *)
  let first = ref 0 in
  let row dt =
    while !first < n_steps && steps.(!first) <= dt do
      incr first
    done;
    let stop = dt + search_limit in
    scan ~dt ~stop ~top:fs.(stop) !first (fs.(dt) - gmin.(0))
  in
  let samples = Array.init (h + 1) row in
  let probes = Array.init f.rate_den (fun x -> row (h + 1 + x)) in
  let slack =
    probe_slack ~kind:f.kind ~h ~l:f.rate_den ~rate:rf ~anchor:samples.(h)
      [ (fun dt -> probes.(dt - h - 1)) ]
  in
  {
    kind = f.kind;
    samples;
    rate_num = f.rate_num;
    rate_den = f.rate_den;
    tail_offset = signed_offset f.kind slack;
  }

(* The deviations account for the half-open arrival-window convention of
   this library: [upper dt] covers the arrivals at instants
   [t .. t + dt - 1], so the service available to the last of them by
   relative instant [t + dt - 1 + tau] is [lower (dt - 1 + tau)].

   Both searches are certified: when rate upper <= rate lower, advancing
   dt by one common period changes the deviation monotonically downward
   (vertical) or cannot increase the required tau (horizontal) once both
   curves are past their horizons, so the supremum over dt is attained
   within max horizon + lcm of the denominators. *)

let deviation_limit ~upper ~lower =
  Stdlib.max (horizon upper) (horizon lower + 1)
  + lcm upper.rate_den lower.rate_den

let vertical_deviation ~upper ~lower =
  if not (upper.kind = Upper && lower.kind = Lower) then
    invalid_arg "Rtc.Curve.vertical_deviation: expected (upper, lower)";
  let upper, lower = harmonise upper lower in
  if
    not
      (rate_le (upper.rate_num, upper.rate_den)
         (lower.rate_num, lower.rate_den))
  then None
  else begin
    let limit = deviation_limit ~upper ~lower in
    let rec scan dt best =
      if dt > limit then Some best
      else begin
        let v = eval upper dt - eval lower (dt - 1) in
        scan (dt + 1) (if v > best then v else best)
      end
    in
    scan 1 0
  end

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
    let limit = deviation_limit ~upper ~lower in
    (* tau dt = j dt - (dt - 1) with j dt the first index >= dt - 1
       where lower reaches upper dt.  The demand never falls and the
       start only advances, so j never moves left as dt grows: one
       forward pointer serves every dt. *)
    let rec scan dt j demand best =
      if dt > limit then Some best
      else begin
        let d = eval upper dt in
        if d < demand then
          invalid_arg "Rtc.Curve.horizontal_deviation: decreasing upper curve";
        let start = dt - 1 in
        let rec advance j =
          if j - start > 8 * limit then None
          else if eval lower j >= d then Some j
          else advance (j + 1)
        in
        match advance (if j > start then j else start) with
        | None -> None
        | Some j ->
          let tau = j - start in
          scan (dt + 1) j d (if tau > best then tau else best)
      end
    in
    scan 1 0 min_int 0
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
