(* Rendezvous (HRW) hashing. See ring.mli for the scheme and why it was
   picked over a fixed-size ring. *)

(* FNV-1a, 64-bit. [Rvu_obs.Fault] keeps its own copy private, and the
   constants are the whole algorithm, so a local definition is cheaper
   than widening that interface. *)
let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let fnv1a_str h s =
  let h = ref h in
  String.iter
    (fun c ->
      h := Int64.logxor !h (Int64.of_int (Char.code c));
      h := Int64.mul !h fnv_prime)
    s;
  !h

let fnv1a_parts parts =
  List.fold_left
    (fun h part ->
      let h = fnv1a_str h part in
      (* Fold a separator byte between parts so concatenation boundaries
         matter: ["ab";"c"] and ["a";"bc"] must not collide trivially. *)
      Int64.mul (Int64.logxor h 0x1fL) fnv_prime)
    fnv_basis parts

let score ~shard ~parts =
  let key_hash = fnv1a_parts parts in
  let shard_hash = Rvu_obs.Splitmix.mix64 (Int64.of_int (shard + 1)) in
  Rvu_obs.Splitmix.mix64 (Int64.logxor key_hash shard_hash)

let pick ~live ~parts =
  let best = ref (-1) and best_score = ref 0L in
  Array.iteri
    (fun i alive ->
      if alive then
        let s = score ~shard:i ~parts in
        if !best < 0 || Int64.unsigned_compare s !best_score > 0 then begin
          best := i;
          best_score := s
        end)
    live;
  if !best < 0 then None else Some !best

let order ~shards ~parts =
  let idx = Array.init shards (fun i -> i) in
  let scores = Array.init shards (fun i -> score ~shard:i ~parts) in
  Array.sort
    (fun a b ->
      match Int64.unsigned_compare scores.(b) scores.(a) with
      | 0 -> compare a b
      | c -> c)
    idx;
  idx
