type span = {
  trace_id : string; (* 32 lowercase hex chars *)
  span_id : string; (* 16 lowercase hex chars *)
  parent_id : string option; (* 16 lowercase hex chars *)
}

type t = { cid : string; span : span option }

let key : t option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)
let current () = Domain.DLS.get key

let with_ctx c f =
  let prev = Domain.DLS.get key in
  Domain.DLS.set key (Some c);
  Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) f

(* ------------------------------------------------------------------ *)
(* Correlation ids *)

(* Deterministic per process under the default seed so cram tests can pin
   the generated ids. *)
let seed_state = Atomic.make 0L
let counter = Atomic.make 0

let set_seed s =
  Atomic.set seed_state (Splitmix.mix64 (Int64.of_int s));
  Atomic.set counter 0

let generate () =
  let n = Atomic.fetch_and_add counter 1 in
  Printf.sprintf "c%016Lx" (Splitmix.nth (Atomic.get seed_state) n)

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

let gen_span_id () =
  Printf.sprintf "%016Lx"
    (Splitmix.nth id_seed (Atomic.fetch_and_add id_counter 1))

let gen_trace_id () = gen_span_id () ^ gen_span_id ()

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
