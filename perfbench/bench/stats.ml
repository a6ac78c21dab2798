(* Nearest-rank order statistics over float samples. *)

let sorted a =
  let a = Array.copy a in
  Array.sort Float.compare a;
  a

let rank n q = int_of_float (Float.ceil (q /. 100. *. float_of_int n))

(* The [q]-th percentile (0 < q <= 100) of already sorted samples; 0 on
   an empty sample. *)
let pct_sorted s q =
  let n = Array.length s in
  if n = 0 then 0. else s.(max 0 (min (n - 1) (rank n q - 1)))

let pct a q = pct_sorted (sorted a) q
let median a = pct a 50.

(* Samples ranked strictly above the [q]-th percentile. *)
let beyond n q = n - rank n q

let sum a = Array.fold_left ( +. ) 0. a
let max_ a = Array.fold_left Float.max 0. a
let mean a = if a = [||] then 0. else sum a /. float_of_int (Array.length a)

(* [a / b], with an instance without affinity weight counting as fully
   coalesced (as in the sweep leaderboard). *)
let fraction a b = if b = 0 then 1. else float_of_int a /. float_of_int b
