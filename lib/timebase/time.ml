type t =
  | Fin of int
  | Inf

let zero = Fin 0

let one = Fin 1

let of_int d = Fin d

let to_int = function
  | Fin d -> d
  | Inf -> invalid_arg "Time.to_int: infinite"

let to_int_opt = function
  | Fin d -> Some d
  | Inf -> None

let is_finite = function
  | Fin _ -> true
  | Inf -> false

let add x y =
  match x, y with
  | Fin a, Fin b -> Fin (a + b)
  | Inf, _ | _, Inf -> Inf

let sub x y =
  match x, y with
  | _, Inf -> invalid_arg "Time.sub: subtrahend is infinite"
  | Fin a, Fin b -> Fin (a - b)
  | Inf, Fin _ -> Inf

let sub_clamped x y =
  match x, y with
  | _, Inf -> zero
  | Fin a, Fin b -> Fin (Stdlib.max 0 (a - b))
  | Inf, Fin _ -> Inf

let scale k t =
  if k < 0 then invalid_arg "Time.scale: negative factor";
  match t with
  | Fin d -> Fin (k * d)
  | Inf -> if k = 0 then zero else Inf

let compare x y =
  match x, y with
  | Fin a, Fin b -> Stdlib.compare a b
  | Fin _, Inf -> -1
  | Inf, Fin _ -> 1
  | Inf, Inf -> 0

let equal x y = compare x y = 0

let min x y = if compare x y <= 0 then x else y

let max x y = if compare x y >= 0 then x else y

let ( < ) x y = compare x y < 0

let ( <= ) x y = compare x y <= 0

let ( > ) x y = compare x y > 0

let ( >= ) x y = compare x y >= 0

let to_string = function Fin d -> string_of_int d | Inf -> "inf"

let pp ppf t = Format.pp_print_string ppf (to_string t)
