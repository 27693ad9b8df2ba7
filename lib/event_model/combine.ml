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
   packed value table ([Curve.eval_range_into]), and the merge writes
   straight into the result's [Curve.table] buffer; a prefix up to N of
   the combined curve costs O(N * k) comparisons, reads at most N values
   of each input and builds no intermediate streams.  The direct min/max
   scans over the equations live in [Verify.Reference] as the
   differential reference. *)

let rec next_pow2 k n = if k >= n then k else next_pow2 (k * 2) n

type input = {
  curve : Curve.t;
  offset : int;  (* buffer index i holds the value at curve index i + offset *)
  mutable buf : int array;
  mutable filled : int;  (* indices 0 .. filled - 1 are valid *)
}

let input curve ~offset = { curve; offset; buf = [||]; filled = 0 }

(* make indices 0 .. n valid *)
let ensure t n =
  if n >= t.filled then begin
    let need = n + 1 in
    if need > Array.length t.buf then begin
      let grown = Array.make (next_pow2 64 need) 0 in
      Array.blit t.buf 0 grown 0 t.filled;
      t.buf <- grown
    end;
    Curve.eval_range_into t.curve ~n0:(t.filled + t.offset)
      ~len:(need - t.filled) ~dst:t.buf ~pos:t.filled;
    t.filled <- need
  end

(* [order_statistic ~offset curves] is the table curve n -> (n -
   offset)-th smallest (0-based) of {c j | c in curves, j >= offset}, for
   n >= 2 >= offset.  Ranks below [2 - offset] are merged but not
   stored. *)
let order_statistic ~offset curves =
  let inputs = Array.of_list (List.map (fun c -> input c ~offset) curves) in
  let k = Array.length inputs in
  let heads = Array.make k 0 in
  let next = ref 0 in (* ranks merged so far *)
  Curve.table (fun ~n0 ~len ~dst ~pos ->
    let first = n0 - offset and last = n0 + len - 1 - offset in
    (* r more ranks read each head at most r - 1 places further *)
    let r = last + 1 - !next in
    for i = 0 to k - 1 do
      ensure inputs.(i) (heads.(i) + r - 1)
    done;
    for m = !next to last do
      let best = ref 0 and v = ref inputs.(0).buf.(heads.(0)) in
      for i = 1 to k - 1 do
        let x = inputs.(i).buf.(heads.(i)) in
        if x < !v then begin
          best := i;
          v := x
        end
      done;
      if m >= first then dst.(pos + m - first) <- !v;
      (* every head infinite: so is every later rank *)
      if !v <> Curve.packed_inf then heads.(!best) <- heads.(!best) + 1
    done;
    next := last + 1)

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
    Stream.of_curves ~name:(combined_name "or" name streams)
      ~delta_min:
        (order_statistic ~offset:1 (List.map Stream.delta_min_curve streams))
      ~delta_plus:
        (order_statistic ~offset:2 (List.map Stream.delta_plus_curve streams))

(* pointwise [pick] over the inputs' packed values *)
let pointwise_fold pick curves =
  let curves = Array.of_list curves in
  Curve.table ~pointwise:true (fun ~n0 ~len ~dst ~pos ->
    Curve.eval_range_into curves.(0) ~n0 ~len ~dst ~pos;
    if Array.length curves > 1 then begin
      let other = Array.make len 0 in
      for i = 1 to Array.length curves - 1 do
        Curve.eval_range_into curves.(i) ~n0 ~len ~dst:other ~pos:0;
        for j = 0 to len - 1 do
          dst.(pos + j) <- pick dst.(pos + j) other.(j)
        done
      done
    end)

let and_combine ?name streams =
  match streams with
  | [] -> invalid_arg "Combine.and_combine: empty stream list"
  | _ :: _ ->
    Stream.of_curves ~name:(combined_name "and" name streams)
      ~delta_min:
        (pointwise_fold Int.min (List.map Stream.delta_min_curve streams))
      ~delta_plus:
        (pointwise_fold Int.max (List.map Stream.delta_plus_curve streams))
