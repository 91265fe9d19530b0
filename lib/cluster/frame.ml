(* Byte-span surgery on NDJSON lines. See frame.mli for why the router
   splices bytes instead of re-printing parsed trees.

   The request-side helpers run only on lines that already passed
   [Wire.parse] (requests) or that a worker printed (responses), so they
   can assume well-formed JSON and just walk structure. Any surprise
   raises [Exit] internally and the caller's wrapper degrades to a safe
   default. *)

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'

let skip_ws s i =
  let n = String.length s in
  let i = ref i in
  while !i < n && is_ws s.[!i] do
    incr i
  done;
  !i

(* [i] at the opening quote; index just past the closing quote. *)
let skip_string s i =
  let n = String.length s in
  let rec go i =
    if i >= n then raise Exit
    else
      match s.[i] with
      | '"' -> i + 1
      | '\\' -> go (i + 2)
      | _ -> go (i + 1)
  in
  go (i + 1)

module Envelope = Rvu_service.Envelope

(* The byte runs between the envelope value spans the scan found; the
   whole request when it found none or gave up. *)
let parts_between bytes = function
  | None -> [ bytes ]
  | Some (scan : Envelope.scan) ->
      let spans =
        List.sort compare
          (List.filter_map Fun.id
             [ scan.id_value; scan.trace_value; scan.timeout_value ])
      in
      let n = String.length bytes in
      let parts = ref [] and pos = ref 0 in
      List.iter
        (fun (s, e) ->
          if s > !pos then parts := String.sub bytes !pos (s - !pos) :: !parts;
          pos := e)
        spans;
      if !pos < n then parts := String.sub bytes !pos (n - !pos) :: !parts;
      List.rev !parts

let routing_parts line = parts_between line (Envelope.json line)

let forward_parts ?trace line =
  (* The propagated span context rides right behind the router id, ahead
     of the client's members, so [Wire.member "trace"] sees the router's
     context even when the client sent its own. A traceparent is hex and
     dashes only — no JSON escaping needed. *)
  let post_prefix =
    match trace with
    | None -> ""
    | Some tp -> ",\"trace\":\"" ^ tp ^ "\""
  in
  match
    let n = String.length line in
    let i = skip_ws line 0 in
    if i >= n || line.[i] <> '{' then raise Exit;
    let j = skip_ws line (i + 1) in
    if j >= n then raise Exit;
    if line.[j] = '}' then ("{\"id\":", post_prefix ^ "}")
    else ("{\"id\":", post_prefix ^ "," ^ String.sub line j (n - j))
  with
  | exception Exit ->
      (* Not reachable for parse-validated objects; forward untouched with
         the id as an unused prefix-free spelling so the worker still gets
         valid JSON to reject. *)
      ("{\"id\":", post_prefix ^ "}")
  | parts -> parts

(* ------------------------------------------------------------------ *)
(* Binary-frame analogues ({!Rvu_service.Wire_bin} payloads).

   The same validate-once / splice-verbatim discipline, one structural
   difference: a binary object carries its member count in the header,
   so prepending the router's id member must also bump that count —
   [bin_forward_parts]'s prefix re-encodes the header, and everything
   from the first original member on is forwarded untouched. Duplicate
   keys decode fine and [Wire.member] takes the first, exactly like the
   JSON path. *)

let bin_u32 s pos =
  let b i = Char.code s.[pos + i] in
  (b 0 lsl 24) lor (b 1 lsl 16) lor (b 2 lsl 8) lor b 3

let add_bin_u32 b n =
  Buffer.add_char b (Char.chr ((n lsr 24) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 16) land 0xff));
  Buffer.add_char b (Char.chr ((n lsr 8) land 0xff));
  Buffer.add_char b (Char.chr (n land 0xff))

let bin_routing_parts payload = parts_between payload (Envelope.binary payload)

(* The encoded trace member ([u32 5]["trace"]['\x05'][u32 len][bytes]),
   prepended to [post] so it lands right behind the spliced router id. *)
let bin_trace_member tp =
  let b = Buffer.create (16 + String.length tp) in
  add_bin_u32 b 5;
  Buffer.add_string b "trace";
  Buffer.add_char b '\x05';
  add_bin_u32 b (String.length tp);
  Buffer.add_string b tp;
  Buffer.contents b

let bin_forward_parts ?trace payload =
  let extra, post_prefix =
    match trace with
    | None -> (1, "")
    | Some tp -> (2, bin_trace_member tp)
  in
  match
    if String.length payload < 5 || payload.[0] <> '\x07' then raise Exit;
    let count = bin_u32 payload 1 in
    let b = Buffer.create 16 in
    Buffer.add_char b '\x07';
    add_bin_u32 b (count + extra);
    add_bin_u32 b 2;
    Buffer.add_string b "id";
    ( Buffer.contents b,
      post_prefix ^ String.sub payload 5 (String.length payload - 5) )
  with
  | exception Exit ->
      (* Not reachable for decode-validated objects; forward an empty
         object carrying only the router envelope so the worker still
         gets a well-formed frame to reject. *)
      let b = Buffer.create 16 in
      Buffer.add_char b '\x07';
      add_bin_u32 b extra;
      add_bin_u32 b 2;
      Buffer.add_string b "id";
      (Buffer.contents b, post_prefix)
  | parts -> parts

(* A worker's binary response opens with the id member (Int) followed by
   the ctx member (String) — the shape our servers always emit. Returns
   [(rid, id_value_span, ctx_value_span)] or [None] (e.g. a salvaged
   null id), sending the caller to the full-decode fallback. *)
let bin_response_spans payload =
  match
    let n = String.length payload in
    if n < 5 + 4 + 2 + 9 || payload.[0] <> '\x07' then raise Exit;
    (* first member: key "id", value Int *)
    if not (bin_u32 payload 5 = 2 && payload.[9] = 'i' && payload.[10] = 'd')
    then raise Exit;
    if payload.[11] <> '\x03' then raise Exit;
    let rid = Int64.to_int (String.get_int64_be payload 12) in
    let id_span = (11, 20) in
    (* second member: key "ctx", value String *)
    if n < 20 + 4 + 3 + 5 then raise Exit;
    if
      not
        (bin_u32 payload 20 = 3
        && payload.[24] = 'c'
        && payload.[25] = 't'
        && payload.[26] = 'x')
    then raise Exit;
    if payload.[27] <> '\x05' then raise Exit;
    let slen = bin_u32 payload 28 in
    let cend = 32 + slen in
    if cend > n then raise Exit;
    Some (rid, id_span, (27, cend))
  with
  | exception Exit -> None
  | spans -> spans

let bin_splice_response payload ~id_span:(is, ie) ~ctx_span:(cs, ce) ~id ~ctx
    =
  let n = String.length payload in
  let b = Buffer.create (n + 16) in
  Buffer.add_substring b payload 0 is;
  Buffer.add_string b id;
  Buffer.add_substring b payload ie (cs - ie);
  Buffer.add_string b ctx;
  Buffer.add_substring b payload ce (n - ce);
  Buffer.contents b

let response_spans line =
  let n = String.length line in
  let prefix = "{\"id\":" in
  let plen = String.length prefix in
  if n < plen + 2 || not (String.starts_with ~prefix line) then None
  else begin
    let j = ref plen in
    while !j < n && line.[!j] >= '0' && line.[!j] <= '9' do
      incr j
    done;
    if !j = plen then None
    else
      match int_of_string_opt (String.sub line plen (!j - plen)) with
      | None -> None
      | Some rid ->
          let id_span = (plen, !j) in
          let ctx_prefix = ",\"ctx\":\"" in
          let cplen = String.length ctx_prefix in
          let ctx_span =
            if
              n >= !j + cplen
              && String.sub line !j cplen = ctx_prefix
            then
              let cstart = !j + cplen - 1 in
              match skip_string line cstart with
              | cend -> Some (cstart, cend)
              | exception Exit -> None
            else None
          in
          Some (rid, id_span, ctx_span)
  end

let splice_response line ~id_span:(is, ie) ~ctx_span ~id ~ctx =
  let n = String.length line in
  let b = Buffer.create (n + 16) in
  Buffer.add_substring b line 0 is;
  Buffer.add_string b id;
  (match ctx_span with
  | Some (cs, ce) ->
      Buffer.add_substring b line ie (cs - ie);
      Buffer.add_string b ctx;
      Buffer.add_substring b line ce (n - ce)
  | None ->
      (* Worker response without a ctx field (should not happen with our
         servers): insert ours right after the id. *)
      Buffer.add_string b ",\"ctx\":";
      Buffer.add_string b ctx;
      Buffer.add_substring b line ie (n - ie));
  Buffer.contents b
