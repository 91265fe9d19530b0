type span = {
  trace_id : string; (* 32 lowercase hex chars *)
  span_id : string; (* 16 lowercase hex chars *)
  parent_id : string option; (* 16 lowercase hex chars *)
}

type t = { cid : string; span : span option }

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get key

(* No [Fun.protect]: its closures would land on every request. *)
let with_ctx c f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some c);
  match f () with
  | v ->
      Domain.DLS.set key prev;
      v
  | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      Domain.DLS.set key prev;
      Printexc.raise_with_backtrace e bt

(* ------------------------------------------------------------------ *)
(* Correlation ids *)

(* Lowercase hex, zero-padded to 16 digits per 64-bit id, written
   straight into the result string: a traced request mints three ids,
   and a format string would cost several times the time and allocation
   of the id itself. *)
let hex_digits = "0123456789abcdef"

let put_hex b off x =
  for i = 0 to 15 do
    Bytes.unsafe_set b (off + i)
      hex_digits.[Int64.to_int (Int64.shift_right_logical x (60 - (4 * i)))
                  land 15]
  done

(* Deterministic per process under the default seed so cram tests can pin
   the generated ids. *)
let seed_state = Atomic.make 0L
let counter = Atomic.make 0

let set_seed s =
  Atomic.set seed_state (Splitmix.mix64 (Int64.of_int s));
  Atomic.set counter 0

let generate () =
  let n = Atomic.fetch_and_add counter 1 in
  let b = Bytes.create 17 in
  Bytes.set b 0 'c';
  put_hex b 1 (Splitmix.nth (Atomic.get seed_state) n);
  Bytes.unsafe_to_string b

let derive = function
  | Wire.Int n -> "req-" ^ string_of_int n
  | Wire.String s -> "req-" ^ s
  | _ -> generate ()

(* ------------------------------------------------------------------ *)
(* Span contexts *)

(* Trace/span ids come from their own stream, separate from [generate]'s:
   the correlation sequence is cram-pinned and must not shift when
   tracing allocates ids. The seed mixes in the pid and the monotonic
   clock so concurrently started processes (router + spawned shards)
   never collide on span ids — nothing pins trace ids, so
   nondeterminism is free here. *)
let id_seed =
  Splitmix.mix64
    (Int64.logxor 0x7472616365_1d5eedL
       (Int64.logxor (Int64.of_int (Unix.getpid ())) (Clock.now_ns ())))

let id_counter = Atomic.make 0

(* [n] consecutive ids of the stream as one hex string. *)
let gen_hex n =
  let b = Bytes.create (16 * n) in
  for k = 0 to n - 1 do
    put_hex b (16 * k)
      (Splitmix.nth id_seed (Atomic.fetch_and_add id_counter 1))
  done;
  Bytes.unsafe_to_string b

let gen_span_id () = gen_hex 1
let gen_trace_id () = gen_hex 2

let new_root () =
  { trace_id = gen_trace_id (); span_id = gen_span_id (); parent_id = None }

let child_of p =
  {
    trace_id = p.trace_id;
    span_id = gen_span_id ();
    parent_id = Some p.span_id;
  }

let to_traceparent sc = Printf.sprintf "00-%s-%s-01" sc.trace_id sc.span_id

(* W3C traceparent: version "00", then 32 hex trace id, 16 hex parent
   (span) id, 2 hex flags, dash-separated — 55 bytes. Anything else is
   ignored (the spec's behaviour for malformed headers), never an error:
   a bad trace member must not fail the request that carries it. *)
let of_traceparent s =
  let is_hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  let hex_at pos len =
    let ok = ref true in
    for i = pos to pos + len - 1 do
      if not (is_hex s.[i]) then ok := false
    done;
    !ok
  in
  if
    String.length s = 55
    && s.[0] = '0' && s.[1] = '0' && s.[2] = '-' && s.[35] = '-'
    && s.[52] = '-' && hex_at 3 32 && hex_at 36 16 && hex_at 53 2
    && String.sub s 3 32 <> String.make 32 '0'
    && String.sub s 36 16 <> String.make 16 '0'
  then
    Some
      {
        trace_id = String.sub s 3 32;
        span_id = String.sub s 36 16;
        parent_id = None;
      }
  else None
