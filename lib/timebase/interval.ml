type t = {
  lo : int;
  hi : int;
}

let make ~lo ~hi =
  if lo < 0 then invalid_arg "Interval.make: negative lower bound";
  if lo > hi then invalid_arg "Interval.make: lo > hi";
  { lo; hi }

let point c = make ~lo:c ~hi:c

let lo t = t.lo

let hi t = t.hi

let width t = t.hi - t.lo

let add a b = { lo = a.lo + b.lo; hi = a.hi + b.hi }

let contains t x = t.lo <= x && x <= t.hi

let equal a b = a.lo = b.lo && a.hi = b.hi

let to_string t = "[" ^ string_of_int t.lo ^ ":" ^ string_of_int t.hi ^ "]"

let pp ppf t = Format.pp_print_string ppf (to_string t)
