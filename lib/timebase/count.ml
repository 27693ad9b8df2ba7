type t =
  | Fin of int
  | Inf

let zero = Fin 0

let of_int n =
  if n < 0 then invalid_arg "Count.of_int: negative count";
  Fin n

let to_int = function
  | Fin n -> n
  | Inf -> invalid_arg "Count.to_int: infinite"

let to_int_opt = function
  | Fin n -> Some n
  | Inf -> None

let is_finite = function
  | Fin _ -> true
  | Inf -> false

let add x y =
  match x, y with
  | Fin a, Fin b -> Fin (a + b)
  | Inf, _ | _, Inf -> Inf

let compare x y =
  match x, y with
  | Fin a, Fin b -> Stdlib.compare a b
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let equal x y = compare x y = 0

let min x y = if compare x y <= 0 then x else y

let max x y = if compare x y >= 0 then x else y

let to_string = function Fin n -> string_of_int n | Inf -> "inf"

let pp ppf t = Format.pp_print_string ppf (to_string t)
