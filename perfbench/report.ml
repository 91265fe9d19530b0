(* Output: a human-readable line per metric, one JSON record of the run's
   environment and validity counters, and, last, the result line. *)

module Wire = Rvu_obs.Wire

(* Counters and ratios read from the serving processes' stats deltas
   around the timed phase. *)
type live = {
  hit_ratio : float;  (** timed requests answered from a cache *)
  evictions_per_kreq : float;
  util : float;  (** serving processes' CPU seconds per wall second *)
  shed : float;
  timeouts : float;
  retried : float;
  evicted : float;
  routed_share : float option;  (** largest shard's share of routed requests *)
  minor_per_kreq : float;
  major_per_kreq : float;
  top_heap_mb : float;
  realized : float;  (** reference-stream segments realized *)
}

(* Linear interpolation between closest ranks, on a sorted array. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then nan
  else
    let x = p *. float_of_int (n - 1) in
    let i = int_of_float x in
    if i + 1 >= n then sorted.(n - 1)
    else sorted.(i) +. ((x -. float_of_int i) *. (sorted.(i + 1) -. sorted.(i)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  percentile a 0.5

let print_record fields =
  print_endline (Wire.print (Wire.Obj [ ("record", Wire.Obj fields) ]))

(* Floats print with all their digits; a non-finite value (a ratio with an
   empty base) is reported as -1 so the line stays valid JSON. *)
let value x = Wire.Float (if Float.is_finite x then x else -1.0)

let print_result ~correct ~attempted ~failed metrics =
  List.iter (fun (name, v, unit) -> Printf.printf "%-40s %14.6g %s\n" name v unit) metrics;
  print_endline
    (Wire.print
       (Wire.Obj
          [
            ("correct", Wire.Bool correct);
            ("attempted", Wire.Int attempted);
            ("failed", Wire.Int failed);
            ( "metrics",
              Wire.Obj
                (List.map
                   (fun (name, v, unit) ->
                     (name, Wire.Obj [ ("value", value v); ("unit", Wire.String unit) ]))
                   metrics) );
          ]))
