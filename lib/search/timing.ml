let pi1 = Rvu_numerics.Floats.pi +. 1.0

let search_circle_time delta = 2.0 *. pi1 *. delta

let search_annulus_time ~inner ~outer ~rho =
  let m = float_of_int (Rvu_numerics.Floats.ceil_div_pos (outer -. inner) (2.0 *. rho)) in
  2.0 *. pi1 *. (1.0 +. m) *. (inner +. (rho *. m))

let search_round_time k =
  if k < 1 then invalid_arg "Timing.search_round_time: k < 1";
  3.0 *. pi1 *. float_of_int (k + 1) *. Procedures.pow2 (k + 1)

let search_all_time n =
  if n < 1 then invalid_arg "Timing.search_all_time: n < 1";
  12.0 *. pi1 *. float_of_int n *. Procedures.pow2 n

let search_round_segments k =
  if k < 1 then invalid_arg "Timing.search_round_segments: k < 1";
  (* 2k annuli; annulus j has 2^(2k−j) + 1 circles of 3 segments each, plus
     the terminal wait: 3·(2^(2k+1) − 2 + 2k) + 1. *)
  (3 * ((1 lsl ((2 * k) + 1)) - 2 + (2 * k))) + 1

let search_all_segments n =
  if n < 1 then invalid_arg "Timing.search_all_segments: n < 1";
  let rec go acc k = if k > n then acc else go (acc + search_round_segments k) (k + 1) in
  go 0 1

(* Round n of Algorithm 7 (a wait, SearchAll(n), SearchAllRev(n)) has
   2·SearchAll(n) + 1 = 2^(2n+4) + 6n² − 4n − 15 segments: 2^60 + 4577 at
   n = 28, past max_int = 2^62 − 1 from n = 29. *)
let max_schedule_round = 28
