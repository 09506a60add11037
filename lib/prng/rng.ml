(* [draws] counts the 64-bit words this generator has advanced over;
   it is not part of the stream, so {!save} leaves it out and every
   fresh generator (created, copied, split off or restored) starts at 0. *)
type t = { gen : Xoshiro.t; sm : Splitmix64.t; mutable draws : int }

let of_splitmix sm = { gen = Xoshiro.of_splitmix sm; sm; draws = 0 }
let create ?(seed = 0x5EED) () =
  of_splitmix (Splitmix64.create (Int64.of_int seed))
let copy g = { gen = Xoshiro.copy g.gen; sm = Splitmix64.split g.sm; draws = 0 }

let split g =
  g.draws <- g.draws + 1;
  of_splitmix (Splitmix64.split g.sm)

let draws g = g.draws

let bits64 g =
  g.draws <- g.draws + 1;
  Xoshiro.next g.gen

(* Lemire-style unbiased bounded sampling via rejection on the top bits. *)
let int g bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask *)
    Int64.to_int (Int64.logand (bits64 g) (Int64.of_int (bound - 1)))
  else begin
    (* Rejection sampling on 62 bits to avoid sign issues. *)
    let mask = (1 lsl 62) - 1 in
    let limit = mask - (mask mod bound) in
    let rec draw () =
      let r = Int64.to_int (bits64 g) land mask in
      if r >= limit then draw () else r mod bound
    in
    draw ()
  end

let int_in g lo hi =
  if hi < lo then invalid_arg "Rng.int_in: empty range";
  lo + int g (hi - lo + 1)

let float g =
  (* 53 uniform bits scaled to [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (bits64 g) 11) in
  float_of_int r *. 0x1.0p-53

let bool g = Int64.logand (bits64 g) 1L = 1L

let bernoulli g p =
  if not (p >= 0. && p <= 1.) then invalid_arg "Rng.bernoulli: p not in [0,1]";
  float g < p

let geometric g p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p not in (0,1]";
  if p = 1. then 0
  else
    (* Inverse CDF: floor(log(1-u) / log(1-p)). *)
    let u = float g in
    int_of_float (floor (log1p (-.u) /. log1p (-.p)))

let pair_distinct g n =
  if n < 2 then invalid_arg "Rng.pair_distinct: need n >= 2";
  let i = int g n in
  let j0 = int g (n - 1) in
  let j = if j0 >= i then j0 + 1 else j0 in
  if i < j then (i, j) else (j, i)

let shuffle_in_place g a =
  for i = Array.length a - 1 downto 1 do
    let j = int g (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done

let save g = Array.append (Xoshiro.state g.gen) [| Splitmix64.state g.sm |]

let restore words =
  if Array.length words <> 5 then invalid_arg "Rng.restore: need 5 words";
  { gen = Xoshiro.of_state (Array.sub words 0 4);
    sm = Splitmix64.create words.(4);
    draws = 0 }
