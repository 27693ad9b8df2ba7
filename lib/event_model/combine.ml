module Time = Timebase.Time

(* OR-combination as one k-way merge.  Eq. (3) asks for the least t such
   that some contribution vector K with sum n has delta_min_i k_i <= t for
   every i.  Each delta_min_i is monotone with delta_min_i 1 = 0, so input
   i can contribute up to #{j >= 1 | delta_min_i j <= t} events below t,
   and such a K exists iff these counts sum to at least n: delta_min n is
   the n-th smallest value of the multiset {delta_min_i j | i, j >= 1}.
   Symmetrically, eq. (4) over g_i(k) = delta_plus_i (k + 2) asks for the
   largest t with fewer than n - 1 values g_i(k) below t: delta_plus n is
   the (n - 1)-th smallest of {delta_plus_i j | i, j >= 2}.  Both curves
   are therefore the same order statistic, "value n - offset (0-based) of
   the merged inputs from index [offset] on", with offset 1 resp. 2.

   This relies on the monotone-delta contract of [Stream.make] (audited
   by [Verify.Stream]).  Each input curve is read once, into a growable
   packed value table ([Curve.eval_range_into]); a prefix up to N of the
   combined curve costs O(N * k) comparisons, reads at most N values of
   each input and builds no intermediate streams.  The direct min/max
   scans over the equations live in [Verify.Reference] as the
   differential reference. *)

let rec next_pow2 k n = if k >= n then k else next_pow2 (k * 2) n

(* [buf], or a copy of its first [filled] values with room for [need] *)
let reserve buf ~filled need =
  if need <= Array.length buf then buf
  else begin
    let grown = Array.make (next_pow2 64 need) 0 in
    Array.blit buf 0 grown 0 filled;
    grown
  end

type table = {
  curve : Curve.t;
  offset : int;  (* table index i holds the value at curve index i + offset *)
  mutable buf : int array;
  mutable filled : int;  (* indices 0 .. filled - 1 are valid *)
}

let table curve ~offset = { curve; offset; buf = [||]; filled = 0 }

(* make indices 0 .. n valid *)
let ensure t n =
  if n >= t.filled then begin
    let need = n + 1 in
    t.buf <- reserve t.buf ~filled:t.filled need;
    Curve.eval_range_into t.curve ~n0:(t.filled + t.offset)
      ~len:(need - t.filled) ~dst:t.buf ~pos:t.filled;
    t.filled <- need
  end

(* [order_statistic ~offset curves] is the function n -> (n - offset)-th
   smallest (0-based) of {c j | c in curves, j >= offset}, for
   n >= offset.  The merged sequence is extended lazily and kept. *)
let order_statistic ~offset curves =
  let inputs = Array.of_list (List.map (fun c -> table c ~offset) curves) in
  let k = Array.length inputs in
  let heads = Array.make k 0 in
  let merged = ref [||] and filled = ref 0 in
  let extend last =
    let r = last + 1 - !filled in
    if r > 0 then begin
      merged := reserve !merged ~filled:!filled (last + 1);
      (* r more elements read each head at most r - 1 places further *)
      for i = 0 to k - 1 do
        ensure inputs.(i) (heads.(i) + r - 1)
      done;
      let out = !merged in
      for m = !filled to last do
        let best = ref 0 and v = ref inputs.(0).buf.(heads.(0)) in
        for i = 1 to k - 1 do
          let x = inputs.(i).buf.(heads.(i)) in
          if x < !v then begin
            best := i;
            v := x
          end
        done;
        out.(m) <- !v;
        (* every head infinite: so is every later element *)
        if !v <> Curve.packed_inf then heads.(!best) <- heads.(!best) + 1
      done;
      filled := last + 1
    end
  in
  fun n ->
    extend (n - offset);
    let v = !merged.(n - offset) in
    if v = Curve.packed_inf then Time.Inf else Time.of_int v

let combined_name kind name streams =
  match name with
  | Some n -> n
  | None ->
    Printf.sprintf "%s(%s)" kind
      (String.concat "," (List.map Stream.name streams))

let or_combine ?name streams =
  match streams with
  | [] -> invalid_arg "Combine.or_combine: empty stream list"
  | [ s ] -> Stream.with_name (combined_name "or" name streams) s
  | _ :: _ :: _ ->
    (* [Stream.make] only consults n >= 2 >= offset *)
    Stream.make ~name:(combined_name "or" name streams)
      ~delta_min:
        (order_statistic ~offset:1 (List.map Stream.delta_min_curve streams))
      ~delta_plus:
        (order_statistic ~offset:2 (List.map Stream.delta_plus_curve streams))

let and_combine ?name streams =
  match streams with
  | [] -> invalid_arg "Combine.and_combine: empty stream list"
  | _ :: _ ->
    let fold pick curve_of =
      let curves = Array.of_list (List.map curve_of streams) in
      fun n ->
        let v = ref (Curve.eval_packed curves.(0) n) in
        for i = 1 to Array.length curves - 1 do
          v := pick !v (Curve.eval_packed curves.(i) n)
        done;
        if !v = Curve.packed_inf then Time.Inf else Time.of_int !v
    in
    Stream.make ~name:(combined_name "and" name streams)
      ~delta_min:(fold (fun (a : int) b -> if a <= b then a else b)
                    Stream.delta_min_curve)
      ~delta_plus:(fold (fun (a : int) b -> if a >= b then a else b)
                     Stream.delta_plus_curve)
