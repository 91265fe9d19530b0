(* Rendezvous (HRW) hashing. See ring.mli for the scheme and why it was
   picked over a fixed-size ring. *)

(* FNV-1a, 64-bit. [Rvu_obs.Fault] keeps its own copy private, and the
   constants are the whole algorithm, so a local definition is cheaper
   than widening that interface. *)
let fnv_basis = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

(* FNV-1a over the parts, with a separator byte folded in after each so
   concatenation boundaries matter: ["ab";"c"] and ["a";"bc"] must not
   collide trivially. A [for] loop keeps the accumulator unboxed. *)
let key_hash parts =
  List.fold_left
    (fun h part ->
      let h = ref h in
      for i = 0 to String.length part - 1 do
        let c = Int64.of_int (Char.code (String.unsafe_get part i)) in
        h := Int64.mul (Int64.logxor !h c) fnv_prime
      done;
      Int64.mul (Int64.logxor !h 0x1fL) fnv_prime)
    fnv_basis parts

let shard_score key shard =
  let shard_hash = Rvu_obs.Splitmix.mix64 (Int64.of_int (shard + 1)) in
  Rvu_obs.Splitmix.mix64 (Int64.logxor key shard_hash)

let score ~shard ~parts = shard_score (key_hash parts) shard

let pick ~live ~parts =
  let key = key_hash parts in
  let best = ref (-1) and best_score = ref 0L in
  for i = 0 to Array.length live - 1 do
    if live.(i) then begin
      let s = shard_score key i in
      if !best < 0 || Int64.unsigned_compare s !best_score > 0 then begin
        best := i;
        best_score := s
      end
    end
  done;
  if !best < 0 then None else Some !best

let order ~shards ~parts =
  let idx = Array.init shards (fun i -> i) in
  let key = key_hash parts in
  let scores = Array.init shards (shard_score key) in
  Array.sort
    (fun a b ->
      match Int64.unsigned_compare scores.(b) scores.(a) with
      | 0 -> compare a b
      | c -> c)
    idx;
  idx
