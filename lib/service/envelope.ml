(* One request-envelope scan, two front ends. See envelope.mli for what
   the scan promises and why the frame key is sound.

   Both walks are closure-free and tail-recursive; the members they find
   are noted in one small mutable accumulator, so a scan allocates that,
   the result record and one option per member found. Any surprise
   raises [Exit], which the entry points turn into [None]. *)

type scan = {
  id_value : (int * int) option;
  trace_value : (int * int) option;
  timeout_value : (int * int) option;
}

(* First-occurrence value spans, -1 while not found. *)
type acc = {
  mutable id_start : int;
  mutable id_end : int;
  mutable trace_start : int;
  mutable trace_end : int;
  mutable timeout_start : int;
  mutable timeout_end : int;
}

let fresh () =
  {
    id_start = -1;
    id_end = -1;
    trace_start = -1;
    trace_end = -1;
    timeout_start = -1;
    timeout_end = -1;
  }

let rec bytes_eq s start len lit i =
  i >= len || (s.[start + i] = lit.[i] && bytes_eq s start len lit (i + 1))

let bytes_are s start len lit =
  len = String.length lit && bytes_eq s start len lit 0

(* One member: key bytes at [kstart, kstart + klen), value at
   [vstart, vend). A later member of a name already seen changes nothing:
   [Wire.member] reads the first. *)
let note a s kstart klen vstart vend =
  if bytes_are s kstart klen "id" then begin
    if a.id_start < 0 then begin
      a.id_start <- vstart;
      a.id_end <- vend
    end
  end
  else if bytes_are s kstart klen "trace" then begin
    if a.trace_start < 0 then begin
      a.trace_start <- vstart;
      a.trace_end <- vend
    end
  end
  else if bytes_are s kstart klen "timeout_ms" && a.timeout_start < 0 then begin
    a.timeout_start <- vstart;
    a.timeout_end <- vend
  end

let span start stop = if start < 0 then None else Some (start, stop)

let result a =
  {
    id_value = span a.id_start a.id_end;
    trace_value = span a.trace_start a.trace_end;
    timeout_value = span a.timeout_start a.timeout_end;
  }

(* ------------------------------------------------------------------ *)
(* JSON front end *)

let is_ws c = c = ' ' || c = '\t' || c = '\n' || c = '\r'
let rec skip_ws s n i = if i < n && is_ws s.[i] then skip_ws s n (i + 1) else i

(* [i] just past an opening quote; the index just past the closing one.
   A raw control byte is invalid JSON, and NUL is the frame key's
   excision mark, so both fail. [escapes:false] also fails on a
   backslash: an escaped key can spell [id] without those bytes. *)
let rec skip_string s n i ~escapes =
  if i >= n then raise Exit
  else
    match s.[i] with
    | '"' -> i + 1
    | '\\' -> if escapes then skip_string s n (i + 2) ~escapes else raise Exit
    | c when c < ' ' -> raise Exit
    | _ -> skip_string s n (i + 1) ~escapes

(* Inside [depth] open brackets; the index just past the bracket that
   closes the outermost. The structure inside is not checked: a hit's
   bytes equal a line that parsed, and a miss is parsed in full. *)
let rec skip_nested s n i depth =
  if i >= n then raise Exit
  else
    match s.[i] with
    | '"' -> skip_nested s n (skip_string s n (i + 1) ~escapes:true) depth
    | '{' | '[' -> skip_nested s n (i + 1) (depth + 1)
    | '}' | ']' -> if depth = 1 then i + 1 else skip_nested s n (i + 1) (depth - 1)
    | c when c < ' ' && not (is_ws c) -> raise Exit
    | _ -> skip_nested s n (i + 1) depth

(* Numbers and the three literals: a run of the bytes they are made of. *)
let rec skip_scalar s n i =
  if i < n then
    match s.[i] with
    | '0' .. '9' | 'a' .. 'z' | '-' | '+' | '.' | 'E' -> skip_scalar s n (i + 1)
    | _ -> i
  else i

let skip_value s n i =
  if i >= n then raise Exit
  else
    match s.[i] with
    | '"' -> skip_string s n (i + 1) ~escapes:true
    | '{' | '[' -> skip_nested s n (i + 1) 1
    | '0' .. '9' | 'a' .. 'z' | '-' -> skip_scalar s n (i + 1)
    | _ -> raise Exit

(* [i] where the next member's key is due (after '{' or ','). *)
let rec json_members a s n i =
  let i = skip_ws s n i in
  if i >= n || s.[i] <> '"' then raise Exit;
  let kstart = i + 1 in
  let kend = skip_string s n kstart ~escapes:false in
  let i = skip_ws s n kend in
  if i >= n || s.[i] <> ':' then raise Exit;
  let vstart = skip_ws s n (i + 1) in
  let vend = skip_value s n vstart in
  note a s kstart (kend - 1 - kstart) vstart vend;
  let i = skip_ws s n vend in
  if i >= n then raise Exit
  else
    match s.[i] with
    | ',' -> json_members a s n (i + 1)
    | '}' -> if skip_ws s n (i + 1) <> n then raise Exit
    | _ -> raise Exit

let json s =
  let n = String.length s in
  match
    let i = skip_ws s n 0 in
    if i >= n || s.[i] <> '{' then raise Exit;
    let a = fresh () in
    let j = skip_ws s n (i + 1) in
    if j < n && s.[j] = '}' then begin
      if skip_ws s n (j + 1) <> n then raise Exit
    end
    else json_members a s n (i + 1);
    a
  with
  | a -> Some (result a)
  | exception Exit -> None

let rec all_digits s i stop =
  i >= stop || (s.[i] >= '0' && s.[i] <= '9' && all_digits s (i + 1) stop)

let rec no_escape s i stop = i >= stop || (s.[i] <> '\\' && no_escape s (i + 1) stop)

let rec int_of_digits s i stop acc =
  if i >= stop then acc
  else int_of_digits s (i + 1) stop ((10 * acc) + Char.code s.[i] - Char.code '0')

(* Up to 18 digits cannot overflow an OCaml int; longer runs go through
   the parser, which falls back to a float past [max_int]. *)
let json_value s (start, stop) =
  let len = stop - start in
  let digits = if len > 0 && s.[start] = '-' then start + 1 else start in
  if digits < stop && stop - digits <= 18 && all_digits s digits stop then
    let v = int_of_digits s digits stop 0 in
    Some (Wire.Int (if digits > start then -v else v))
  else if
    len >= 2 && s.[start] = '"' && s.[stop - 1] = '"'
    && no_escape s (start + 1) (stop - 1)
  then Some (Wire.String (String.sub s (start + 1) (len - 2)))
  else if bytes_are s start len "null" then Some Wire.Null
  else Result.to_option (Wire.parse (String.sub s start len))

(* ------------------------------------------------------------------ *)
(* Binary front end (the {!Wire_bin} value layout) *)

let get_u32 s pos =
  if pos + 4 > String.length s then raise Exit;
  (Char.code s.[pos] lsl 24)
  lor (Char.code s.[pos + 1] lsl 16)
  lor (Char.code s.[pos + 2] lsl 8)
  lor Char.code s.[pos + 3]

(* [pos] at a tag byte; the index just past the value. Non-finite floats
   fail here as they fail [Wire_bin.decode]: a scan that let them through
   would let a warm hit answer a request the decoder rejects. *)
let rec skip_bin s n pos =
  if pos >= n then raise Exit;
  match s.[pos] with
  | '\x00' | '\x01' | '\x02' -> pos + 1
  | '\x03' -> if pos + 9 > n then raise Exit else pos + 9
  | '\x04' ->
      if
        pos + 9 <= n
        && Float.is_finite (Int64.float_of_bits (String.get_int64_be s (pos + 1)))
      then pos + 9
      else raise Exit
  | '\x05' ->
      let stop = pos + 5 + get_u32 s (pos + 1) in
      if stop > n then raise Exit else stop
  | '\x06' -> skip_bins s n (pos + 5) (get_u32 s (pos + 1))
  | '\x07' -> skip_bin_members s n (pos + 5) (get_u32 s (pos + 1))
  | _ -> raise Exit

and skip_bins s n pos count =
  if count = 0 then pos else skip_bins s n (skip_bin s n pos) (count - 1)

and skip_bin_members s n pos count =
  if count = 0 then pos
  else begin
    let vstart = pos + 4 + get_u32 s pos in
    if vstart > n then raise Exit;
    skip_bin_members s n (skip_bin s n vstart) (count - 1)
  end

let rec bin_members a s n pos count =
  if count = 0 then begin
    if pos <> n then raise Exit
  end
  else begin
    let klen = get_u32 s pos in
    let vstart = pos + 4 + klen in
    if vstart > n then raise Exit;
    let vend = skip_bin s n vstart in
    note a s (pos + 4) klen vstart vend;
    bin_members a s n vend (count - 1)
  end

let binary s =
  match
    if String.length s = 0 || s.[0] <> '\x07' then raise Exit;
    let a = fresh () in
    bin_members a s (String.length s) 5 (get_u32 s 1);
    a
  with
  | a -> Some (result a)
  | exception Exit -> None

(* ------------------------------------------------------------------ *)
(* The frame-cache key *)

(* [s] with [a0, a1) and then [b0, b1) each replaced by one NUL byte;
   [b0 = length s] marks the first span only. *)
let mark s a0 a1 b0 b1 =
  let n = String.length s in
  let second = b0 < n in
  let out =
    Bytes.create (n - (a1 - a0 - 1) - if second then b1 - b0 - 1 else 0)
  in
  Bytes.blit_string s 0 out 0 a0;
  Bytes.set out a0 '\x00';
  if second then begin
    let o = a0 + 1 + (b0 - a1) in
    Bytes.blit_string s a1 out (a0 + 1) (b0 - a1);
    Bytes.set out o '\x00';
    Bytes.blit_string s b1 out (o + 1) (n - b1)
  end
  else Bytes.blit_string s a1 out (a0 + 1) (n - a1);
  Bytes.unsafe_to_string out

let key s scan =
  let n = String.length s in
  match (scan.id_value, scan.trace_value) with
  | None, None -> s
  | Some (a0, a1), None | None, Some (a0, a1) -> mark s a0 a1 n n
  | Some (a0, a1), Some (b0, b1) ->
      if a0 < b0 then mark s a0 a1 b0 b1 else mark s b0 b1 a0 a1
