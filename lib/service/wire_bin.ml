(* The binary wire codec: a canonical, length-prefixed encoding of
   {!Wire.t}, negotiated per connection (see DESIGN.md section 17).

   Design constraints, in order:

   - {e Canonical.} Every value has exactly one encoding, so
     [encode (decode p) = p] byte-for-byte and routed traffic can be
     byte-spliced at the cluster tier exactly like JSON lines are
     ({!Rvu_cluster.Frame}). This is why integers are always 8 bytes:
     a varint would be smaller on the wire but the router could no longer
     replace an id value in place without resizing, and two spellings of
     the same int would break the splice-equals-reencode property.
   - {e Same value domain as JSON.} Floats are finite-only on encode
     {e and} decode — the JSON printer refuses non-finite floats, so a
     payload that can only exist in one codec would break the
     binary-equals-json differential oracle.
   - {e Cheap to skip.} Every value's extent is computable from its
     header without building anything, so the server's warm fast path and
     the router scan envelopes without decoding them ({!scan_request}). *)

type mode = Json | Binary

let mode_string = function Json -> "json" | Binary -> "binary"

let mode_of_string = function
  | "json" -> Some Json
  | "binary" -> Some Binary
  | _ -> None

(* Value tags. The Bool polarity rides in the tag so a boolean is one
   byte, and Null/false/true stay below every length-carrying tag. *)
let tag_null = '\x00'
let tag_false = '\x01'
let tag_true = '\x02'
let tag_int = '\x03'
let tag_float = '\x04'
let tag_string = '\x05'
let tag_list = '\x06'
let tag_obj = '\x07'

(* ------------------------------------------------------------------ *)
(* Encoding *)

let add_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let add_i64 b n = Buffer.add_int64_be b n

let rec add_value b (v : Wire.t) =
  match v with
  | Wire.Null -> Buffer.add_char b tag_null
  | Wire.Bool false -> Buffer.add_char b tag_false
  | Wire.Bool true -> Buffer.add_char b tag_true
  | Wire.Int n ->
      Buffer.add_char b tag_int;
      add_i64 b (Int64.of_int n)
  | Wire.Float f ->
      if not (Float.is_finite f) then
        invalid_arg "Wire_bin.encode: non-finite float";
      Buffer.add_char b tag_float;
      add_i64 b (Int64.bits_of_float f)
  | Wire.String s ->
      Buffer.add_char b tag_string;
      add_u32 b (String.length s);
      Buffer.add_string b s
  | Wire.List items ->
      Buffer.add_char b tag_list;
      add_u32 b (List.length items);
      List.iter (add_value b) items
  | Wire.Obj fields ->
      Buffer.add_char b tag_obj;
      add_u32 b (List.length fields);
      List.iter
        (fun (k, v) ->
          add_u32 b (String.length k);
          Buffer.add_string b k;
          add_value b v)
        fields

(* Splice primitives for callers that assemble an object encoding by
   hand around already-encoded spans (the response envelope fast path):
   the canonical encoding of an object is exactly
   [add_obj_header; (add_key; value bytes)*]. *)
let add_obj_header b count =
  Buffer.add_char b tag_obj;
  add_u32 b count

let add_key b k =
  add_u32 b (String.length k);
  Buffer.add_string b k

(* Per-domain scratch buffer: the encode path runs on worker domains (a
   response is rendered where its handler ran) and on transport domains,
   so the preallocated buffer is domain-local rather than per-server.
   Steady-state encodes reuse the same backing store — the only per-call
   allocation left is the immutable result string. *)
let scratch : Buffer.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Buffer.create 4096)

let with_scratch f =
  let b = Domain.DLS.get scratch in
  Buffer.clear b;
  f b;
  Buffer.contents b

let encode v = with_scratch (fun b -> add_value b v)

(* ------------------------------------------------------------------ *)
(* Decoding *)

exception Malformed of string

let fail fmt = Printf.ksprintf (fun m -> raise (Malformed m)) fmt

let get_u32 s pos =
  if pos + 4 > String.length s then fail "offset %d: truncated length" pos;
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

let get_i64 s pos =
  if pos + 8 > String.length s then fail "offset %d: truncated 64-bit value" pos;
  String.get_int64_be s pos

(* [decode_value s pos] returns [(value, next_pos)]. *)
let rec decode_value s pos =
  let n = String.length s in
  if pos >= n then fail "offset %d: truncated value" pos;
  let tag = s.[pos] in
  let pos = pos + 1 in
  if tag = tag_null then (Wire.Null, pos)
  else if tag = tag_false then (Wire.Bool false, pos)
  else if tag = tag_true then (Wire.Bool true, pos)
  else if tag = tag_int then (Wire.Int (Int64.to_int (get_i64 s pos)), pos + 8)
  else if tag = tag_float then begin
    let f = Int64.float_of_bits (get_i64 s pos) in
    if not (Float.is_finite f) then
      fail "offset %d: non-finite float" (pos - 1);
    (Wire.Float f, pos + 8)
  end
  else if tag = tag_string then begin
    let len = get_u32 s pos in
    let pos = pos + 4 in
    if pos + len > n then fail "offset %d: truncated string of %d bytes" pos len;
    (Wire.String (String.sub s pos len), pos + len)
  end
  else if tag = tag_list then begin
    let count = get_u32 s pos in
    let pos = ref (pos + 4) in
    let items = ref [] in
    for _ = 1 to count do
      let v, next = decode_value s !pos in
      items := v :: !items;
      pos := next
    done;
    (Wire.List (List.rev !items), !pos)
  end
  else if tag = tag_obj then begin
    let count = get_u32 s pos in
    let pos = ref (pos + 4) in
    let fields = ref [] in
    for _ = 1 to count do
      let klen = get_u32 s !pos in
      let kstart = !pos + 4 in
      if kstart + klen > n then
        fail "offset %d: truncated key of %d bytes" kstart klen;
      let k = String.sub s kstart klen in
      let v, next = decode_value s (kstart + klen) in
      fields := (k, v) :: !fields;
      pos := next
    done;
    (Wire.Obj (List.rev !fields), !pos)
  end
  else fail "offset %d: unknown tag 0x%02x" (pos - 1) (Char.code tag)

let decode s =
  match decode_value s 0 with
  | v, pos ->
      if pos <> String.length s then
        Error
          (Printf.sprintf "offset %d: %d trailing bytes after value" pos
             (String.length s - pos))
      else Ok v
  | exception Malformed msg -> Error msg

(* [decode_span s ~pos ~len] decodes the single value occupying exactly
   [s.[pos .. pos+len-1]] — how the server materialises just the id and
   trace values out of spans {!scan_request} found, without decoding the
   rest. *)
let decode_span s ~pos ~len =
  match decode_value s pos with
  | v, next ->
      if next <> pos + len then
        Error (Printf.sprintf "offset %d: value does not fill its span" pos)
      else Ok v
  | exception Malformed msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Request-envelope scan (one scan for both wires: {!Envelope}) *)

type request_scan = Envelope.scan = {
  id_value : (int * int) option;
  trace_value : (int * int) option;
  timeout_value : (int * int) option;
}

let scan_request = Envelope.binary

(* ------------------------------------------------------------------ *)
(* Framing *)

let frame payload =
  let n = String.length payload in
  let b = Bytes.create (n + 4) in
  Bytes.set b 0 (Char.chr ((n lsr 24) land 0xff));
  Bytes.set b 1 (Char.chr ((n lsr 16) land 0xff));
  Bytes.set b 2 (Char.chr ((n lsr 8) land 0xff));
  Bytes.set b 3 (Char.chr (n land 0xff));
  Bytes.blit_string payload 0 b 4 n;
  Bytes.unsafe_to_string b

let output_frame oc payload =
  let n = String.length payload in
  output_char oc (Char.chr ((n lsr 24) land 0xff));
  output_char oc (Char.chr ((n lsr 16) land 0xff));
  output_char oc (Char.chr ((n lsr 8) land 0xff));
  output_char oc (Char.chr (n land 0xff));
  output_string oc payload

type read_result =
  | Frame of string
  | Eof
  | Oversized of int
  | Truncated

let input_frame ?first ?max_bytes ic =
  match (match first with Some c -> c | None -> input_char ic) with
  | exception End_of_file -> Eof
  | c0 -> (
      match
        let c1 = input_char ic in
        let c2 = input_char ic in
        let c3 = input_char ic in
        (Char.code c0 lsl 24) lor (Char.code c1 lsl 16)
        lor (Char.code c2 lsl 8) lor Char.code c3
      with
      | exception End_of_file -> Truncated
      | len -> (
          match max_bytes with
          | Some limit when len > limit ->
              (* The remaining bytes are not consumed: an oversized length
                 is either hostile or a framing desync (e.g. a JSON line on
                 a binary connection), and in both cases resynchronising is
                 guesswork. The caller answers and closes. *)
              Oversized len
          | _ -> (
              let b = Bytes.create len in
              match really_input ic b 0 len with
              | () -> Frame (Bytes.unsafe_to_string b)
              | exception End_of_file -> Truncated)))
