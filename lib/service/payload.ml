(* A cacheable response payload with memoized wire renders.

   The scheduler's LRU used to cache the {!Wire.t} result tree and every
   response rendered it again — fine when JSON was the only codec, but a
   warm hit on a binary connection would then pay the JSON printer's
   float formatting for nothing. Caching this record instead means each
   codec's bytes are produced at most once per cache residency, and a
   warm response is a splice of memoized bytes rather than a render.

   The [mutable] fields are written without a lock: two domains racing on
   a cold payload may both render, and both write the same bytes (each
   codec is deterministic), so the race is idempotent — last writer wins
   and every reader sees either [None] or a correct render. *)

type t = {
  body : Wire.t;
  mutable json : string option;
  mutable bin : string option;
}

let of_wire body = { body; json = None; bin = None }
let body t = t.body

let json t =
  match t.json with
  | Some s -> s
  | None ->
      let s = Wire.print t.body in
      t.json <- Some s;
      s

let bin t =
  match t.bin with
  | Some s -> s
  | None ->
      let s = Wire_bin.encode t.body in
      t.bin <- Some s;
      s

(* The JSON ok-envelope splice: byte-identical to
   [Wire.print (Proto.ok_response ~ctx ~id (body t))] because the compact
   printer is compositional (a subtree prints the same bytes in any
   context) — so warm JSON responses reuse the memoized body render
   instead of re-printing the tree (and re-formatting every float). The
   envelope is assembled in the per-domain scratch buffer, so the only
   allocation is the response string. *)
let ok_json t ~ctx ~id =
  let ok = json t in
  Wire_bin.with_scratch (fun b ->
      Buffer.add_string b "{\"id\":";
      Wire.add_compact b id;
      Buffer.add_string b ",\"ctx\":";
      Wire.add_compact b (Wire.String ctx);
      Buffer.add_string b ",\"ok\":";
      Buffer.add_string b ok;
      Buffer.add_char b '}')

(* ------------------------------------------------------------------ *)
(* Binary ok-envelope splice.

   It produces exactly
   [Wire_bin.encode (Proto.ok_response ~ctx ~id (body t))] — the binary
   encoding is canonical and an object is its fields in order, so
   appending [id], [ctx] and the memoized [ok] bytes under a 3-member
   header is the whole encode. The memoized render is forced {e before}
   borrowing the scratch buffer: [bin] encodes into the same per-domain
   buffer, and nesting the two would clobber the envelope. *)

let ok_bin t ~ctx ~id =
  let ok = bin t in
  Wire_bin.with_scratch (fun b ->
      Wire_bin.add_obj_header b 3;
      Wire_bin.add_key b "id";
      Wire_bin.add_value b id;
      Wire_bin.add_key b "ctx";
      Wire_bin.add_value b (Wire.String ctx);
      Wire_bin.add_key b "ok";
      Buffer.add_string b ok)
