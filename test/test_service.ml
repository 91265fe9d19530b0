(* Tests for Rvu_service: the JSON codec, the LRU, the protocol, and the
   service's two load-bearing contracts —

   - bit-identity: a simulate/search response carries the exact floats the
     CLI path (Engine.run / Search_engine.run on a fresh realization)
     produces, even though the service evaluates on worker domains against
     shared cached reference streams;
   - backpressure: flooding past the queue depth sheds with `overloaded`
     and never drops or hangs a response. *)

open Rvu_geom
open Rvu_core
module Wire = Rvu_service.Wire
module Wb = Rvu_service.Wire_bin
module Lru = Rvu_service.Lru
module Proto = Rvu_service.Proto
module Server = Rvu_service.Server
module Router = Rvu_cluster.Router

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

let contains ~needle hay =
  let nh = String.length hay and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub hay i nn = needle || at (i + 1)) in
  nn = 0 || at 0

(* ------------------------------------------------------------------ *)
(* Wire: round trip *)

(* Value equality with bit-level floats: the codec must preserve the exact
   bits, not just a close decimal. *)
let rec wire_equal a b =
  match (a, b) with
  | Wire.Float x, Wire.Float y -> Int64.bits_of_float x = Int64.bits_of_float y
  | Wire.List xs, Wire.List ys ->
      List.length xs = List.length ys && List.for_all2 wire_equal xs ys
  | Wire.Obj xs, Wire.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && wire_equal v v')
           xs ys
  | _ -> a = b

(* Shared wire-document generator; see test/gen.ml. *)
let wire_gen = Gen.wire_gen

let prop_roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse (print v) = Ok v, bit-exact"
    (QCheck.make wire_gen ~print:(fun v -> Wire.print v))
    (fun v ->
      match Wire.parse (Wire.print v) with
      | Ok v' -> wire_equal v v'
      | Error e -> QCheck.Test.fail_reportf "%s" (Wire.error_to_string e))

let test_parse_values () =
  let ok s = Result.get_ok (Wire.parse s) in
  check_bool "int stays int" true (ok "42" = Wire.Int 42);
  check_bool "negative int" true (ok "-7" = Wire.Int (-7));
  check_bool "exponent makes a float" true (ok "1e2" = Wire.Float 100.0);
  check_bool "decimal point makes a float" true (ok "2.0" = Wire.Float 2.0);
  check_bool "escapes decode" true
    (ok {|"a\nbA"|} = Wire.String "a\nbA");
  check_bool "surrogate pair decodes to UTF-8" true
    (ok {|"😀"|} = Wire.String "\xf0\x9f\x98\x80");
  check_bool "whitespace tolerated" true
    (ok " { \"a\" : [ 1 , 2 ] } " = Wire.Obj [ ("a", Wire.List [ Wire.Int 1; Wire.Int 2 ]) ])

let test_parse_errors () =
  let err s =
    match Wire.parse s with
    | Error e -> e
    | Ok _ -> Alcotest.failf "parse %S unexpectedly succeeded" s
  in
  List.iter
    (fun s -> ignore (err s))
    [
      "";
      "{";
      "[1,";
      "tru";
      "{}x";
      "1e999";
      "01e";
      "\"ab";
      {|"\q"|};
      {|"\ud800"|};
      "{\"a\" 1}";
      "nan";
      "--1";
      "1.";
    ];
  (* Positions point at the offending byte. *)
  let e = err "{}x" in
  check_int "trailing-bytes position" 2 e.Wire.pos;
  check_string "message" "trailing characters after value" e.Wire.msg;
  let e = err "[1,\n  tru]" in
  check_int "line tracks newlines" 2 e.Wire.line;
  let e = err "1e999" in
  check_string "overflow is an error, not inf" "number out of range" e.Wire.msg

let test_print_rejects_nonfinite () =
  List.iter
    (fun f ->
      check_bool "non-finite float raises" true
        (match Wire.print (Wire.Float f) with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; Float.infinity; Float.neg_infinity ]

(* ------------------------------------------------------------------ *)
(* Wire_bin: the binary codec against the JSON value domain *)

let decode_bin_exn p =
  match Wb.decode p with
  | Ok w -> w
  | Error msg -> Alcotest.failf "binary decode failed: %s" msg

(* Both directions of the canonical contract, on documents whose floats
   are biased toward the values a codec is most likely to mangle. *)
let prop_bin_roundtrip =
  QCheck.Test.make ~count:500 ~name:"decode_bin (encode_bin v) = v, bit-exact"
    (QCheck.make Gen.wire_edge_gen ~print:(fun v -> Wire.print v))
    (fun v -> wire_equal v (decode_bin_exn (Wb.encode v)))

let prop_bin_canonical =
  QCheck.Test.make ~count:500
    ~name:"encode_bin (decode_bin p) = p, byte-exact"
    (QCheck.make Gen.wire_edge_gen ~print:(fun v -> Wire.print v))
    (fun v ->
      let p = Wb.encode v in
      String.equal p (Wb.encode (decode_bin_exn p)))

let test_bin_float_edges () =
  List.iter
    (fun f ->
      match decode_bin_exn (Wb.encode (Wire.Float f)) with
      | Wire.Float f' ->
          check_bool
            (Printf.sprintf "%h carries its exact bits" f)
            true
            (Int64.bits_of_float f = Int64.bits_of_float f')
      | v -> Alcotest.failf "float decoded as %s" (Wire.kind_name v))
    Gen.edge_floats;
  (* Negative zero specifically: the structural [=] above would accept
     +0.0 for it, so pin the sign through the round trip. *)
  match decode_bin_exn (Wb.encode (Wire.Float (-0.0))) with
  | Wire.Float f ->
      check_bool "negative zero keeps its sign" true (1.0 /. f < 0.0)
  | _ -> Alcotest.fail "negative zero did not decode as a float"

let test_bin_nonfinite_policy () =
  (* Encode refuses non-finite floats, exactly like Wire.print … *)
  List.iter
    (fun f ->
      check_bool "non-finite float raises on encode" true
        (match Wb.encode (Wire.Float f) with
        | _ -> false
        | exception Invalid_argument _ -> true))
    [ Float.nan; Float.infinity; Float.neg_infinity ];
  (* … and a crafted payload carrying non-finite bits is rejected on
     decode, so the binary value domain stays exactly the JSON one. *)
  let crafted bits =
    let b = Buffer.create 9 in
    Buffer.add_char b '\x04';
    Buffer.add_int64_be b bits;
    Buffer.contents b
  in
  List.iter
    (fun bits ->
      check_bool
        (Printf.sprintf "float bits %Lx rejected on decode" bits)
        true
        (Result.is_error (Wb.decode (crafted bits))))
    [
      Int64.bits_of_float Float.nan;
      Int64.bits_of_float Float.infinity;
      Int64.bits_of_float Float.neg_infinity;
      0x7ff8000000000dedL (* a NaN payload no OCaml program produced *);
    ]

let test_bin_decode_malformed () =
  let err p =
    match Wb.decode p with
    | Error m -> m
    | Ok _ -> Alcotest.failf "payload %S unexpectedly decoded" p
  in
  List.iter
    (fun p -> ignore (err p : string))
    [
      "" (* empty payload *);
      "\x09" (* unknown tag *);
      "\x03\x00\x01" (* int missing bytes *);
      "\x05\x00\x00\x00\x05ab" (* string shorter than its length *);
      "\x06\x00\x00\x00\x02\x00" (* list promising more items *);
      "\x07\x00\x00\x00\x01\x00\x00\x00\x01k" (* member value missing *);
      "\x00\x00" (* trailing byte after a complete value *);
    ];
  (* Error messages carry the byte offset of the defect. *)
  check_bool "trailing-bytes error names the offset" true
    (contains ~needle:"1" (err "\x00\x00"))

(* wire_of_request documents for every request shape survive the binary
   codec — value round trip, canonical bytes, and a full decode back
   through request_of_wire. *)
let test_bin_proto_shapes () =
  let requests =
    [
      Proto.Simulate
        {
          attrs =
            Attributes.make ~v:2.0 ~tau:0.5 ~phi:1.0 ~chi:Attributes.Opposite ();
          d = 3.0;
          bearing = 0.4;
          r = 0.25;
          horizon = 1e6;
          algorithm4 = true;
          transform = Rvu_core.Symmetry.identity;
        };
      Proto.Search { d = 4.0; bearing = 0.9; r = 0.5; horizon = 1e7 };
      Proto.Feasibility (Attributes.make ~v:3.0 ());
      Proto.Bound { attrs = Attributes.make ~tau:0.7 (); d = 8.0; r = 0.1 };
      Proto.Schedule 5;
      Proto.Batch
        {
          attrs = Attributes.make ();
          d_lo = 1.0;
          d_hi = 2.0;
          points = 3;
          bearing = 0.9;
          r = 0.4;
          horizon = 1e7;
        };
      Proto.Stats;
      Proto.Metrics Proto.Metrics_json;
      Proto.Metrics Proto.Metrics_prometheus;
      Proto.Health;
      Proto.Hello Wb.Json;
      Proto.Hello Wb.Binary;
    ]
  in
  List.iteri
    (fun i request ->
      let doc =
        Proto.wire_of_request ~id:(Wire.Int (i + 1)) ~timeout_ms:125.0 request
      in
      let p = Wb.encode doc in
      check_bool "binary round trip is the identity" true
        (wire_equal doc (decode_bin_exn p));
      check_string "re-encode is byte-identical" p
        (Wb.encode (decode_bin_exn p));
      match Proto.request_of_wire (decode_bin_exn p) with
      | Ok env ->
          check_bool "request survives the binary codec" true
            (env.Proto.request = request)
      | Error e -> Alcotest.fail e)
    requests;
  (* The response shapes too: ok and every error code. *)
  let responses =
    Proto.ok_response ~ctx:"req-1" ~id:(Wire.Int 1)
      (Wire.Obj
         [ ("outcome", Wire.Obj [ ("t", Wire.Float 12.5) ]); ("n", Wire.Int 3) ])
    :: List.map
         (fun code ->
           Proto.error_response ~ctx:"c0ffee" ~id:Wire.Null code "details here")
         [
           Proto.Parse_error;
           Proto.Invalid_request;
           Proto.Overloaded;
           Proto.Timeout;
           Proto.Internal;
         ]
  in
  List.iter
    (fun doc ->
      let p = Wb.encode doc in
      check_bool "response round-trips" true (wire_equal doc (decode_bin_exn p));
      check_string "response re-encode is byte-identical" p
        (Wb.encode (decode_bin_exn p)))
    responses

(* ------------------------------------------------------------------ *)
(* Lru *)

let test_lru_eviction_order () =
  let c = Lru.create ~capacity:2 in
  Lru.add c "a" 1;
  Lru.add c "b" 2;
  check_bool "a present" true (Lru.find c "a" = Some 1);
  (* "a" was just used, so adding "c" must evict "b". *)
  Lru.add c "c" 3;
  check_bool "b evicted" true (Lru.find c "b" = None);
  check_bool "a survived" true (Lru.find c "a" = Some 1);
  check_bool "c present" true (Lru.find c "c" = Some 3);
  let s = Lru.stats c in
  check_int "hits" 3 s.Lru.hits;
  check_int "misses" 1 s.Lru.misses;
  check_int "evictions" 1 s.Lru.evictions;
  check_int "entries" 2 s.Lru.entries

let test_lru_zero_capacity () =
  let c = Lru.create ~capacity:0 in
  Lru.add c "a" 1;
  check_bool "capacity 0 stores nothing" true (Lru.find c "a" = None);
  check_int "no entries" 0 (Lru.stats c).Lru.entries

(* ------------------------------------------------------------------ *)
(* Proto *)

let decode line =
  Proto.request_of_wire (Result.get_ok (Wire.parse line))

let test_proto_defaults_match_cli () =
  (* {"kind":"simulate"} must mean exactly `rvu simulate` with no flags. *)
  match decode {|{"kind":"simulate"}|} with
  | Ok
      {
        Proto.request = Proto.Simulate s;
        id = Wire.Null;
        timeout_ms = None;
        trace = None;
      } ->
      check_bool "attrs default" true
        (s.Proto.attrs = Attributes.make ~v:1.0 ~tau:1.0 ~phi:0.0 ());
      check_bool "d default" true (s.Proto.d = 2.0);
      check_bool "bearing default" true (s.Proto.bearing = 0.9);
      check_bool "r default" true (s.Proto.r = 0.1);
      check_bool "horizon default" true (s.Proto.horizon = 1e8);
      check_bool "algorithm4 default" true (s.Proto.algorithm4 = false)
  | Ok _ -> Alcotest.fail "decoded to the wrong request"
  | Error e -> Alcotest.fail e

let test_proto_invalid_requests () =
  let expect_error line fragment =
    match decode line with
    | Error msg ->
        check_bool
          (Printf.sprintf "%S mentions %S (got %S)" line fragment msg)
          true
          (contains ~needle:fragment msg)
    | Ok _ -> Alcotest.failf "%S unexpectedly decoded" line
  in
  expect_error {|{"kind":"oops"}|} "unknown request kind";
  expect_error {|{"d":1.0}|} "kind";
  expect_error {|{"kind":"simulate","v":"fast"}|} "\"v\"";
  expect_error {|{"kind":"simulate","d":-1}|} "\"d\"";
  expect_error {|{"kind":"schedule","rounds":0}|} "\"rounds\"";
  expect_error {|{"kind":"batch","points":0}|} "\"points\"";
  expect_error {|{"kind":"simulate","id":[1]}|} "\"id\"";
  expect_error {|{"kind":"simulate","timeout_ms":"soon"}|} "\"timeout_ms\"";
  expect_error "[1,2]" "object"

let test_proto_canonical_key () =
  let key line = Proto.canonical_key (Result.get_ok (decode line)).Proto.request in
  (* Field order, envelope fields and spelling of numbers must not matter. *)
  check_string "same request, same key"
    (key {|{"kind":"simulate","tau":0.5,"d":1.5}|})
    (key {|{"d":1.5e0,"id":7,"timeout_ms":50,"kind":"simulate","tau":0.5}|});
  check_bool "different request, different key" true
    (key {|{"kind":"simulate","tau":0.5,"d":1.5}|}
    <> key {|{"kind":"simulate","tau":0.5,"d":1.51}|})

let test_proto_encode_decode () =
  (* wire_of_request and request_of_wire are inverse on every kind. *)
  let requests =
    [
      Proto.Simulate
        {
          attrs = Attributes.make ~v:2.0 ~tau:0.5 ~phi:1.0 ~chi:Attributes.Opposite ();
          d = 3.0;
          bearing = 0.4;
          r = 0.25;
          horizon = 1e6;
          algorithm4 = true;
          transform = Rvu_core.Symmetry.identity;
        };
      Proto.Search { d = 4.0; bearing = 0.9; r = 0.5; horizon = 1e7 };
      Proto.Feasibility (Attributes.make ~v:3.0 ());
      Proto.Bound { attrs = Attributes.make ~tau:0.7 (); d = 8.0; r = 0.1 };
      Proto.Schedule 5;
      Proto.Batch
        {
          attrs = Attributes.make ();
          d_lo = 1.0;
          d_hi = 2.0;
          points = 3;
          bearing = 0.9;
          r = 0.4;
          horizon = 1e7;
        };
      Proto.Stats;
      Proto.Metrics Proto.Metrics_json;
      Proto.Metrics Proto.Metrics_prometheus;
    ]
  in
  List.iter
    (fun request ->
      match Proto.request_of_wire (Proto.wire_of_request request) with
      | Ok env -> check_bool "request round-trips" true (env.Proto.request = request)
      | Error e -> Alcotest.fail e)
    requests

(* ------------------------------------------------------------------ *)
(* Bit-identity with the CLI evaluation path *)

let float_member path response =
  let v =
    List.fold_left
      (fun v name ->
        match Wire.member name v with
        | Some v -> v
        | None -> Alcotest.failf "response lacks %s" name)
      response path
  in
  match v with
  | Wire.Float f -> f
  | Wire.Int i -> float_of_int i
  | v -> Alcotest.failf "expected a number, got %s" (Wire.kind_name v)

let test_simulate_bit_identical () =
  let attrs = Attributes.make ~tau:0.5 () in
  let inst =
    Rvu_sim.Engine.instance ~attributes:attrs
      ~displacement:(Vec2.of_polar ~radius:1.5 ~angle:0.0)
      ~r:0.5
  in
  let direct =
    Rvu_sim.Engine.run ~horizon:1e8 ~program:(Universal.program ()) inst
  in
  let t_direct =
    match direct.Rvu_sim.Engine.outcome with
    | Rvu_sim.Detector.Hit t -> t
    | _ -> Alcotest.fail "direct run did not hit"
  in
  let response =
    Rvu_service.Handler.run
      (Proto.Simulate
         {
           attrs;
           d = 1.5;
           bearing = 0.0;
           r = 0.5;
           horizon = 1e8;
           algorithm4 = false;
           transform = Rvu_core.Symmetry.identity;
         })
  in
  (* Exact float equality, not approximate: the service evaluates on the
     shared cached reference stream, which must replay identical bits. *)
  check_bool "meeting time bit-identical" true
    (float_member [ "outcome"; "t" ] response = t_direct);
  check_bool "analytic bound bit-identical" true
    (float_member [ "bound"; "time" ] response
    = Option.get direct.Rvu_sim.Engine.bound.Universal.time);
  check_int "interval count identical"
    direct.Rvu_sim.Engine.stats.Rvu_sim.Detector.intervals
    (int_of_float (float_member [ "stats"; "intervals" ] response))

let test_search_bit_identical () =
  let direct, _ =
    Rvu_sim.Search_engine.run ~horizon:1e8
      ~program:(Rvu_search.Algorithm4.program ())
      ~target:(Vec2.of_polar ~radius:4.0 ~angle:0.9)
      ~r:0.5 ()
  in
  let t_direct =
    match direct with
    | Rvu_sim.Search_engine.Found t -> t
    | _ -> Alcotest.fail "direct search did not find"
  in
  let response =
    Rvu_service.Handler.run
      (Proto.Search { d = 4.0; bearing = 0.9; r = 0.5; horizon = 1e8 })
  in
  check_bool "discovery time bit-identical" true
    (float_member [ "outcome"; "t" ] response = t_direct)

(* ------------------------------------------------------------------ *)
(* Server: caching, backpressure, timeouts *)

let collecting_server config lines =
  (* Run [lines] through a server, return every response (order of arrival). *)
  let server = Server.create ~config () in
  let lock = Mutex.create () in
  let responses = ref [] in
  Array.iter
    (fun line ->
      Server.handle_line server line ~respond:(fun resp ->
          Mutex.lock lock;
          responses := resp :: !responses;
          Mutex.unlock lock))
    lines;
  Server.wait_idle server;
  Server.stop server;
  List.rev_map (fun r -> Result.get_ok (Wire.parse r)) !responses

let error_code response =
  match Wire.member "error" response with
  | Some err -> (
      match Wire.member "code" err with
      | Some (Wire.String c) -> Some c
      | _ -> Some "malformed-error")
  | None -> None

let simulate_line ?timeout_ms ~id d =
  let request =
    Proto.Simulate
      {
        attrs = Attributes.make ~tau:0.98 ();
        d;
        bearing = 0.7;
        r = 0.005;
        horizon = 1e13;
        algorithm4 = false;
        transform = Rvu_core.Symmetry.identity;
      }
  in
  Wire.print (Proto.wire_of_request ~id:(Wire.Int id) ?timeout_ms request)

let test_server_overload_sheds () =
  let n = 12 in
  let lines = Array.init n (fun i -> simulate_line ~id:(i + 1) (6.0 +. (0.01 *. float_of_int i))) in
  let responses =
    collecting_server
      { Server.default_config with Server.jobs = 1; queue_depth = 2; cache_entries = 0; timeout_ms = None }
      lines
  in
  check_int "every request got exactly one response" n (List.length responses);
  let shed =
    List.length
      (List.filter (fun r -> error_code r = Some "overloaded") responses)
  in
  check_bool "flood past depth 2 shed something" true (shed > 0);
  check_bool "requests within depth still served" true (shed < n)

(* Loadgen against an in-process server: a flood past the queue depth
   answers ok or overloaded; a duplicate and an unknown id count as
   other errors (and as progress); an incomplete run still summarizes
   what arrived. *)
let test_loadgen_summary () =
  let module Loadgen = Rvu_service.Loadgen in
  let flood = 12 in
  let lines =
    Array.init (flood + 2) (fun i ->
        simulate_line ~id:(i + 1) (6.0 +. (0.01 *. float_of_int i)))
  in
  let server =
    Server.create
      ~config:
        {
          Server.default_config with
          Server.jobs = 1;
          queue_depth = 2;
          cache_entries = 0;
          timeout_ms = None;
        }
      ()
  in
  let lg = Loadgen.create ~lines ~requests:(flood + 2) () in
  (* The last two requests are never sent; a duplicate of id 1 and an
     unknown id stand in for their answers. *)
  let sent = ref 0 in
  Loadgen.drive lg ~send:(fun line ->
      incr sent;
      if !sent <= flood then
        Server.handle_line server line ~respond:(Loadgen.note_response lg));
  Server.wait_idle server;
  Loadgen.note_response lg {|{"id":1,"ok":{}}|};
  Loadgen.note_response lg {|{"id":99,"ok":{}}|};
  check_bool "every request accounted for" true (Loadgen.wait lg);
  let s = Loadgen.summary lg in
  check_int "completed" (flood + 2) s.completed;
  check_int "flood answered ok or overloaded" flood (s.ok + s.overloaded);
  check_bool "the flood shed something" true (s.overloaded > 0);
  check_int "duplicate and unknown ids are other errors" 2 s.other_errors;
  check_int "no timeouts" 0 s.timeouts;
  check_bool "p50 <= p95 <= p99 <= p99.9 <= max" true
    (s.p50_ms <= s.p95_ms && s.p95_ms <= s.p99_ms && s.p99_ms <= s.p999_ms
   && s.p999_ms <= s.max_ms);
  check_bool "mean within the samples" true
    (s.mean_ms > 0.0 && s.mean_ms <= s.max_ms);
  (* Incomplete: only request 1 of 3 is sent. *)
  let lg = Loadgen.create ~lines:(Array.sub lines 0 3) ~requests:3 () in
  sent := 0;
  Loadgen.drive lg ~send:(fun line ->
      incr sent;
      if !sent = 1 then
        Server.handle_line server line ~respond:(Loadgen.note_response lg));
  Server.wait_idle server;
  check_bool "wait reports the missing responses" false
    (Loadgen.wait ~timeout_s:0.05 lg);
  let s = Loadgen.summary lg in
  Server.stop server;
  check_int "requests" 3 s.requests;
  check_int "completed" 1 s.completed;
  check_int "ok" 1 s.ok;
  check_bool "one arrival summarized" true
    (Float.is_finite s.p50_ms && s.p50_ms = s.max_ms && s.mean_ms = s.max_ms)

(* [wait] returns when the last response lands, not on a polling tick: a
   response noted from another domain about 5 ms after [wait] starts
   returns it within 15 ms. *)
let test_loadgen_wait_wakes () =
  let module Loadgen = Rvu_service.Loadgen in
  let lg =
    Loadgen.create ~lines:[| {|{"id":1,"kind":"health"}|} |] ~requests:1 ()
  in
  Loadgen.drive lg ~send:ignore;
  let responder =
    Domain.spawn (fun () ->
        Unix.sleepf 0.005;
        Loadgen.note_response lg {|{"id":1,"ok":{}}|})
  in
  let t0 = Rvu_obs.Clock.now_s () in
  let complete = Loadgen.wait ~timeout_s:5.0 lg in
  let waited = Rvu_obs.Clock.now_s () -. t0 in
  Domain.join responder;
  check_bool "the response was noted" true complete;
  check_bool
    (Printf.sprintf "wait returned %.1f ms after it started" (waited *. 1e3))
    true (waited < 0.015)

let test_server_cache_hits () =
  let config =
    { Server.default_config with Server.jobs = 1; queue_depth = 8; cache_entries = 8; timeout_ms = None }
  in
  let server = Server.create ~config () in
  let line = {|{"kind":"feasibility","v":2.0,"id":1}|} in
  let first = Server.handle_sync server line in
  let second = Server.handle_sync server line in
  check_string "cached repeat is byte-identical" first second;
  let stats = Server.stats_json server in
  Server.stop server;
  check_bool "result cache recorded the hit" true
    (float_member [ "cache"; "hits" ] stats >= 1.0)

let test_server_timeout () =
  let lines =
    [|
      simulate_line ~id:1 10.0 (* slow: occupies the single worker *);
      simulate_line ~id:2 ~timeout_ms:1.0 10.5 (* budget expires in queue *);
    |]
  in
  let responses =
    collecting_server
      { Server.default_config with Server.jobs = 1; queue_depth = 8; cache_entries = 0; timeout_ms = None }
      lines
  in
  check_int "both responded" 2 (List.length responses);
  let code_of id =
    List.find_map
      (fun r ->
        if Wire.member "id" r = Some (Wire.Int id) then Some (error_code r)
        else None)
      responses
  in
  check_bool "slow request completed" true (code_of 1 = Some None);
  check_bool "queued request timed out" true (code_of 2 = Some (Some "timeout"))

let test_server_malformed_lines () =
  let server = Server.create ~config:{ Server.default_config with Server.jobs = 1 } () in
  let parse_err = Result.get_ok (Wire.parse (Server.handle_sync server "{nope")) in
  check_bool "parse error code" true (error_code parse_err = Some "parse_error");
  check_bool "parse error id is null" true
    (Wire.member "id" parse_err = Some Wire.Null);
  let invalid =
    Result.get_ok
      (Wire.parse (Server.handle_sync server {|{"kind":"oops","id":"q7"}|}))
  in
  check_bool "invalid request code" true
    (error_code invalid = Some "invalid_request");
  check_bool "id salvaged from a rejected request" true
    (Wire.member "id" invalid = Some (Wire.String "q7"));
  Server.stop server

(* ------------------------------------------------------------------ *)
(* Metrics endpoint *)

(* Pull one counter's value out of a metrics response body. *)
let registry_counter body name =
  match Wire.member "metrics" body with
  | Some (Wire.List metrics) -> (
      match
        List.find_opt
          (fun m -> Wire.member "name" m = Some (Wire.String name))
          metrics
      with
      | Some m -> (
          match Wire.member "value" m with
          | Some (Wire.Int v) -> v
          | _ -> Alcotest.failf "metric %s has no integer value" name)
      | None -> Alcotest.failf "metric %s not in the registry" name)
  | _ -> Alcotest.fail "metrics response lacks a metrics list"

let test_server_metrics_endpoint () =
  let config =
    { Server.default_config with Server.jobs = 1; queue_depth = 8; cache_entries = 8; timeout_ms = None }
  in
  let server = Server.create ~config () in
  let metrics () =
    match
      Wire.member "ok"
        (Result.get_ok
           (Wire.parse (Server.handle_sync server {|{"kind":"metrics"}|})))
    with
    | Some body -> body
    | None -> Alcotest.fail "metrics request failed"
  in
  let before = metrics () in
  (* One cold feasibility (cache miss, admitted to the pool) and one warm
     repeat (cache hit, never admitted). *)
  let line = {|{"kind":"feasibility","v":3.5,"id":1}|} in
  ignore (Server.handle_sync server line : string);
  ignore (Server.handle_sync server line : string);
  let after = metrics () in
  let delta name = registry_counter after name - registry_counter before name in
  check_int "one result-cache miss" 1 (delta "rvu_result_cache_misses_total");
  check_int "one result-cache hit" 1 (delta "rvu_result_cache_hits_total");
  check_int "only the miss was admitted" 1 (delta "rvu_sched_admitted_total");
  check_int "nothing shed" 0 (delta "rvu_sched_shed_total");
  (* The stats endpoint's cumulative process section reads the same
     registry: the two views must agree when the server is quiet. *)
  let stats = Server.stats_json server in
  let process name =
    int_of_float (float_member [ "process"; name ] stats)
  in
  check_int "stats process section agrees on admitted"
    (registry_counter after "rvu_sched_admitted_total")
    (process "sched_admitted");
  check_int "stats process section agrees on result-cache hits"
    (registry_counter after "rvu_result_cache_hits_total")
    (process "result_cache_hits");
  (* Simulations move the engine-run counter, and it shows up here too. *)
  ignore (Server.handle_sync server (simulate_line ~id:9 1.25) : string);
  let final = metrics () in
  check_bool "engine runs advanced by the simulate" true
    (registry_counter final "rvu_engine_runs_total"
     - registry_counter after "rvu_engine_runs_total"
    >= 1);
  (* The derive layer's work: round 1 spans the first 51 segments, so a
     round-1 simulate derives its first 64-segment chunk (the bound
     leaves room for a few doublings), never a 16384-row chunk. *)
  let shallow =
    Result.get_ok
      (Wire.parse
         (Server.handle_sync server
            {|{"kind":"simulate","tau":0.5,"d":1.5,"r":0.2,"bearing":0.7,"id":10}|}))
  in
  check_int "the shallow simulate meets in round 1" 1
    (int_of_float (float_member [ "ok"; "phase"; "round" ] shallow));
  let shallow_after = metrics () in
  let derived body = registry_counter body "rvu_engine_derived_segments_total" in
  let shallow_derived = derived shallow_after - derived final in
  check_bool
    (Printf.sprintf "a round-1 simulate derives 1-1024 segments (got %d)"
       shallow_derived)
    true
    (shallow_derived > 0 && shallow_derived <= 1024);
  check_int "stats process section agrees on derived segments"
    (derived shallow_after)
    (int_of_float
       (float_member [ "process"; "engine_derived_segments" ]
          (Server.stats_json server)));
  (* The broad phase settles a round-5 run's far-apart intervals without
     evaluating a position, and counts them once per run. *)
  let deep =
    Result.get_ok
      (Wire.parse
         (Server.handle_sync server
            {|{"kind":"simulate","tau":0.998,"d":20.0,"r":0.01,"bearing":0.7,"id":11}|}))
  in
  check_int "the deep simulate meets in round 5" 5
    (int_of_float (float_member [ "ok"; "phase"; "round" ] deep));
  let deep_after = metrics () in
  let pruned body = registry_counter body "rvu_engine_pruned_intervals_total" in
  let deep_pruned = pruned deep_after - pruned shallow_after in
  check_bool
    (Printf.sprintf "a round-5 simulate prunes intervals (got %d)" deep_pruned)
    true (deep_pruned > 0);
  check_int "stats process section agrees on pruned intervals"
    (pruned deep_after)
    (int_of_float
       (float_member [ "process"; "engine_pruned_intervals" ]
          (Server.stats_json server)));
  (* Prometheus format: same registry, text exposition in a JSON string. *)
  let prom =
    Result.get_ok
      (Wire.parse
         (Server.handle_sync server {|{"kind":"metrics","format":"prometheus"}|}))
  in
  (match Wire.member "ok" prom with
  | Some (Wire.String text) ->
      check_bool "exposition has TYPE headers" true
        (String.length text > 0
        && String.split_on_char '\n' text
           |> List.exists (fun l ->
                  String.length l > 7 && String.sub l 0 7 = "# TYPE "))
  | _ -> Alcotest.fail "prometheus metrics body is not a string");
  (* Unknown formats are rejected at decode time. *)
  let bad =
    Result.get_ok
      (Wire.parse (Server.handle_sync server {|{"kind":"metrics","format":"xml"}|}))
  in
  check_bool "unknown format rejected" true
    (error_code bad = Some "invalid_request");
  Server.stop server

(* ------------------------------------------------------------------ *)
(* Correlation ids, flight recorder, health *)

module Log = Rvu_obs.Log

let ctx_of response =
  match Wire.member "ctx" response with
  | Some (Wire.String c) -> c
  | _ -> Alcotest.fail "response envelope has no ctx"

let log_field name line =
  match Wire.parse line with
  | Ok (Wire.Obj fields) -> List.assoc_opt name fields
  | Ok _ -> Alcotest.failf "log line is not an object: %s" line
  | Error e ->
      Alcotest.failf "log line unparseable: %s (%s)" line
        (Wire.error_to_string e)

(* An injected scheduler fault must leave a correlated post-mortem: the
   error response, the shed log record, and the flight-recorder dump all
   carry the faulting request's id. *)
let test_server_fault_correlation () =
  Log.configure ~level:Log.Warn ~flight_recorder:16 (Log.Ring 64);
  Rvu_obs.Fault.arm ~seed:7 [ ("sched.force_shed", 1.0) ];
  Fun.protect ~finally:(fun () ->
      Rvu_obs.Fault.disarm ();
      Log.close ())
  @@ fun () ->
  let config =
    { Server.default_config with Server.jobs = 1; cache_entries = 0 }
  in
  let server = Server.create ~config () in
  let response =
    Result.get_ok (Wire.parse (Server.handle_sync server (simulate_line ~id:42 2.0)))
  in
  Server.stop server;
  check_bool "forced shed answered as overloaded" true
    (error_code response = Some "overloaded");
  check_string "response ctx is the request's correlation id" "req-42"
    (ctx_of response);
  let lines = Log.ring_contents () in
  check_bool "the fault produced log records" true (lines <> []);
  check_bool "flight recorder dumped on the injection" true
    (List.exists
       (fun l -> log_field "msg" l = Some (Wire.String "flight-recorder dump"))
       lines);
  check_bool "dump contains the faulting request's id" true
    (List.exists
       (fun l -> log_field "ctx" l = Some (Wire.String "req-42"))
       lines)

(* Spans recorded while a request is in flight carry the same correlation
   id in their args — a log grep and a trace lane meet on "req-5" — and
   the same request context reaches the pool worker and the latency
   exemplar: the engine span, recorded on the worker domain, carries the
   inbound trace id and is parented under the inbound span, and the
   request histogram's exemplar names that trace. *)
let test_server_trace_span_ctx () =
  let path = Filename.temp_file "rvu-test-trace" ".json" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Rvu_obs.Trace.enable ~path ();
  let config =
    { Server.default_config with Server.jobs = 1; cache_entries = 0 }
  in
  let server = Server.create ~config () in
  let inbound = Rvu_obs.Ctx.new_root () in
  let line =
    match Wire.parse (simulate_line ~id:5 1.25) with
    | Ok (Wire.Obj members) ->
        Wire.print
          (Wire.Obj
             (members
             @ [ ("trace", Wire.String (Rvu_obs.Ctx.to_traceparent inbound)) ]
             ))
    | _ -> Alcotest.fail "simulate line is not an object"
  in
  let response = Result.get_ok (Wire.parse (Server.handle_sync server line)) in
  Server.stop server;
  Rvu_obs.Trace.close ();
  check_bool "simulate succeeded" true (error_code response = None);
  check_string "response ctx" "req-5" (ctx_of response);
  let ic = open_in path in
  let n = in_channel_length ic in
  let body = really_input_string ic n in
  close_in ic;
  let span_with_ctx =
    String.split_on_char '\n' body
    |> List.exists (fun line ->
           contains ~needle:{|"name":"engine.detect"|} line
           && contains ~needle:{|"ctx":"req-5"|} line)
  in
  check_bool "engine span args carry the request ctx" true span_with_ctx;
  let detect =
    match Wire.parse body with
    | Ok (Wire.List events) -> (
        match
          List.find_opt
            (fun ev ->
              Wire.member "name" ev = Some (Wire.String "engine.detect")
              && Wire.member "ph" ev = Some (Wire.String "B"))
            events
        with
        | Some ev -> ev
        | None -> Alcotest.fail "no engine.detect begin event")
    | _ -> Alcotest.fail "trace file is not a JSON array"
  in
  let arg k = Option.bind (Wire.member "args" detect) (Wire.member k) in
  check_bool "engine span recorded on a pool worker domain" true
    (Wire.member "tid" detect <> Some (Wire.Int (Domain.self () :> int)));
  check_bool "engine span carries ctx req-5" true
    (arg "ctx" = Some (Wire.String "req-5"));
  check_bool "engine span carries the inbound trace id" true
    (arg "trace_id" = Some (Wire.String inbound.Rvu_obs.Ctx.trace_id));
  check_bool "engine span is parented under the inbound span" true
    (arg "parent_id" = Some (Wire.String inbound.Rvu_obs.Ctx.span_id));
  let exemplar_line =
    String.split_on_char '\n' (Rvu_obs.Metrics.expose_openmetrics ())
    |> List.exists (fun l ->
           contains ~needle:"rvu_server_request_seconds_bucket{" l
           && contains ~needle:{|kind="simulate"|} l
           && contains
                ~needle:
                  (Printf.sprintf "# {trace_id=%S}"
                     inbound.Rvu_obs.Ctx.trace_id)
                l)
  in
  check_bool "request-latency exemplar names the inbound trace" true
    exemplar_line

(* The health endpoint: ready when quiet, degraded after a shed, and the
   per-probe shed mark advances so the next probe is ready again. *)
let test_server_health_probe () =
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      queue_depth = 2;
      cache_entries = 0;
      timeout_ms = None;
    }
  in
  let server = Server.create ~config () in
  let probe () =
    let r =
      Result.get_ok
        (Wire.parse (Server.handle_sync server {|{"kind":"health","id":1}|}))
    in
    match Wire.member "ok" r with
    | Some body ->
        let str path =
          match Wire.member path body with
          | Some (Wire.String s) -> s
          | _ -> Alcotest.failf "health payload lacks %s" path
        in
        let shed =
          match Wire.member "shed_since_last_probe" body with
          | Some (Wire.Int n) -> n
          | _ -> Alcotest.fail "health payload lacks shed count"
        in
        (str "status", shed)
    | None -> Alcotest.fail "health request failed"
  in
  check_bool "quiet server is ready" true (probe () = ("ready", 0));
  (* Flood past the depth-2 queue to force sheds. *)
  let n = 12 in
  let lines =
    Array.init n (fun i ->
        simulate_line ~id:(100 + i) (6.0 +. (0.01 *. float_of_int i)))
  in
  let remaining = ref n in
  let lock = Mutex.create () in
  Array.iter
    (fun line ->
      Server.handle_line server line ~respond:(fun _ ->
          Mutex.lock lock;
          decr remaining;
          Mutex.unlock lock))
    lines;
  Server.wait_idle server;
  check_int "flood fully answered" 0 !remaining;
  let status, shed = probe () in
  check_string "shed flips the probe to degraded" "degraded" status;
  check_bool "probe reports the sheds" true (shed > 0);
  check_bool "the probe advanced the mark: next probe is ready" true
    (probe () = ("ready", 0));
  Server.stop server

(* ------------------------------------------------------------------ *)
(* Binary request path: differential against the JSON path *)

(* One server, every deterministic-compute request shape through both
   entry points: a client must be able to switch codecs without
   observing anything. The JSON pass runs first, so the binary pass also
   exercises the warm frame-path against result-cache state. *)
let test_bin_json_differential () =
  let config =
    {
      Server.default_config with
      Server.jobs = 2;
      queue_depth = 64;
      cache_entries = 256;
      timeout_ms = None;
    }
  in
  let server = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let rand = Random.State.make [| 0x42; 0x1009 |] in
  let requests =
    QCheck.Gen.generate ~rand ~n:25 Gen.proto_compute_request_gen
  in
  List.iteri
    (fun i request ->
      let doc = Proto.wire_of_request ~id:(Wire.Int (i + 1)) request in
      let via_json =
        Result.get_ok (Wire.parse (Server.handle_sync server (Wire.print doc)))
      in
      let via_bin =
        decode_bin_exn (Server.handle_payload_sync server (Wb.encode doc))
      in
      check_bool
        (Printf.sprintf "case %d: binary response = json response, bit-exact"
           (i + 1))
        true
        (wire_equal via_json via_bin))
    requests;
  (* A warm binary repeat must come from the frame cache (memoized bytes,
     no decode) and still answer identically. *)
  let doc = Proto.wire_of_request ~id:(Wire.Int 1) (List.hd requests) in
  let payload = Wb.encode doc in
  let first = Server.handle_payload_sync server payload in
  let hits_before = (Server.frame_cache_stats server).Lru.hits in
  check_string "warm binary repeat is byte-identical" first
    (Server.handle_payload_sync server payload);
  check_bool "warm repeat hit the frame cache" true
    ((Server.frame_cache_stats server).Lru.hits > hits_before);
  (* The reject path too: an invalid request earns the same structured
     error on either codec (the ctx derives from the id, so it agrees). *)
  let invalid = Result.get_ok (Wire.parse {|{"id":77,"kind":"oops"}|}) in
  let via_json =
    Result.get_ok
      (Wire.parse (Server.handle_sync server (Wire.print invalid)))
  in
  let via_bin =
    decode_bin_exn (Server.handle_payload_sync server (Wb.encode invalid))
  in
  check_bool "invalid request rejected identically" true
    (wire_equal via_json via_bin)

(* The torn-frame fault site on the binary path: a frame truncated by the
   (simulated) transport is malformed by construction — its headers
   promise bytes that never arrive — and must answer parse_error. *)
let test_bin_torn_frame_fault () =
  Rvu_obs.Fault.arm ~seed:11 [ ("server.torn_frame", 1.0) ];
  Fun.protect ~finally:(fun () -> Rvu_obs.Fault.disarm ()) @@ fun () ->
  let server =
    Server.create ~config:{ Server.default_config with Server.jobs = 1 } ()
  in
  let payload =
    Wb.encode (Result.get_ok (Wire.parse (simulate_line ~id:3 1.5)))
  in
  let response = decode_bin_exn (Server.handle_payload_sync server payload) in
  Server.stop server;
  check_bool "torn frame answers parse_error" true
    (error_code response = Some "parse_error")

(* ------------------------------------------------------------------ *)
(* Warm binary path: allocation ceiling *)

(* The zero-allocation claim, pinned as a tier-1 regression: a warm
   cacheable request through the binary path (scan, frame-cache hit,
   byte splice) must stay under a fixed minor-words budget. Measured
   ~160 words/request; the 512 ceiling leaves slack for runtime drift
   without letting a closure creep back into the scan path (the JSON
   line path costs ~1900). *)
let test_bin_warm_allocation_ceiling () =
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      queue_depth = 16;
      cache_entries = 64;
      timeout_ms = None;
    }
  in
  let server = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let frames =
    Array.init 8 (fun i ->
        Wb.encode
          (Result.get_ok
             (Wire.parse
                (simulate_line ~id:(i + 1) (1.0 +. (0.1 *. float_of_int i))))))
  in
  (* Fill pass: every later repeat is a frame-cache hit, answered
     synchronously on this domain — which is what makes the per-domain
     Gc.minor_words delta the warm path's own allocation. *)
  Array.iter (fun p -> ignore (Server.handle_payload_sync server p : string)) frames;
  let rounds = 50 in
  let n = rounds * Array.length frames in
  let hits = ref 0 in
  let respond _ = incr hits in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    Array.iter (fun p -> Server.handle_payload server p ~respond) frames
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "every warm request answered synchronously" n !hits;
  check_bool
    (Printf.sprintf "%.0f minor words/request under the 512 ceiling" words)
    true (words < 512.0)

(* The same ceiling on the JSON line path, which takes the same hit path:
   the envelope scan, the frame key, the result-cache splice. Measured
   ~160 words/request; before JSON hits skipped the parse it was ~1730. *)
let test_json_warm_allocation_ceiling () =
  let config =
    {
      Server.default_config with
      Server.jobs = 1;
      queue_depth = 16;
      cache_entries = 64;
      timeout_ms = None;
    }
  in
  let server = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let lines =
    Array.init 8 (fun i ->
        simulate_line ~id:(i + 1) (1.0 +. (0.1 *. float_of_int i)))
  in
  (* Fill passes: the first computes, the second is answered from the
     result cache and files the frame entry; every later repeat is a
     frame hit, answered synchronously on this domain. *)
  for _ = 1 to 2 do
    Array.iter (fun l -> ignore (Server.handle_sync server l : string)) lines
  done;
  let rounds = 50 in
  let n = rounds * Array.length lines in
  let hits = ref 0 in
  let respond _ = incr hits in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    Array.iter (fun l -> Server.handle_line server l ~respond) lines
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "every warm request answered synchronously" n !hits;
  check_bool
    (Printf.sprintf "%.0f minor words/request under the 512 ceiling" words)
    true (words < 512.0)

(* ------------------------------------------------------------------ *)
(* Frame cache: warm hits answer like a fresh server *)

(* The frame cache is not the result cache: its lookups move neither the
   result-cache metrics nor the [stats] cache section, which count each
   request's result-cache lookup once, cold or warm, on either wire. *)
let test_server_metrics_endpoint_binary () =
  let config =
    { Server.default_config with Server.jobs = 1; queue_depth = 8; cache_entries = 8; timeout_ms = None }
  in
  let server = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  let metrics () =
    match
      Wire.member "ok"
        (Result.get_ok
           (Wire.parse (Server.handle_sync server {|{"kind":"metrics"}|})))
    with
    | Some body -> body
    | None -> Alcotest.fail "metrics request failed"
  in
  let cache field =
    int_of_float (float_member [ "cache"; field ] (Server.stats_json server))
  in
  let before = metrics () in
  let hits0 = cache "hits" and misses0 = cache "misses" in
  let payload =
    Wb.encode (Result.get_ok (Wire.parse {|{"kind":"feasibility","v":2.5,"id":1}|}))
  in
  (* One cold request, then warm repeats: the first repeat is answered
     from the result cache on the slow path (and files the frame entry),
     the next two are frame-cache hits. *)
  let cold = Server.handle_payload_sync server payload in
  for _ = 1 to 3 do
    check_string "warm repeat is byte-identical" cold
      (Server.handle_payload_sync server payload)
  done;
  let after = metrics () in
  let delta name = registry_counter after name - registry_counter before name in
  check_int "one result-cache miss" 1 (delta "rvu_result_cache_misses_total");
  check_int "three result-cache hits" 3 (delta "rvu_result_cache_hits_total");
  check_int "only the miss was admitted" 1 (delta "rvu_sched_admitted_total");
  check_int "stats cache section: one miss" 1 (cache "misses" - misses0);
  check_int "stats cache section: three hits" 3 (cache "hits" - hits0);
  check_int "two frame-cache hits" 2 (Server.frame_cache_stats server).Lru.hits

(* A warm hit answers only what the slow path would answer: the excised
   id and trace values are validated before the spliced answer goes out.
   Each request below shares its frame key with a valid request that
   already filled the entry, yet is rejected by the decoder or, for an
   escaped key, read differently; warm and cold servers must give the
   same bytes. *)
let test_warm_answers_like_cold () =
  let config =
    { Server.default_config with Server.jobs = 1; queue_depth = 8; cache_entries = 8; timeout_ms = None }
  in
  let answer server handle bytes =
    Rvu_obs.Ctx.set_seed 0;
    handle server bytes
  in
  let same ~handle ~label ~fill bytes =
    let warm = Server.create ~config () and cold = Server.create ~config () in
    Fun.protect ~finally:(fun () -> Server.stop warm; Server.stop cold)
    @@ fun () ->
    for _ = 1 to 2 do
      ignore (handle warm fill : string)
    done;
    let w = answer warm handle bytes in
    check_string label (answer cold handle bytes) w;
    w
  in
  (* Binary: a NaN trace float (the encoder refuses one, so the bits are
     patched in over a 1.5). *)
  let with_trace v =
    Wb.encode
      (Wire.Obj
         [ ("id", Wire.Int 4); ("kind", Wire.String "schedule"); ("rounds", Wire.Int 2); ("trace", v) ])
  in
  let nan_trace =
    let p = with_trace (Wire.Float 1.5) in
    let bits = String.sub (Wb.encode (Wire.Float 1.5)) 1 8 in
    let at = String.length p - 8 in
    check_string "the trace float sits at the end" bits (String.sub p at 8);
    let b = Bytes.of_string p in
    Bytes.set_int64_be b at (Int64.bits_of_float Float.nan);
    Bytes.to_string b
  in
  let w =
    same ~handle:Server.handle_payload_sync ~label:"binary NaN trace"
      ~fill:(with_trace (Wire.String "t")) nan_trace
  in
  check_bool "binary NaN trace is a parse error" true
    (error_code (decode_bin_exn w) = Some "parse_error");
  (* JSON: values the scan steps over but the parser rejects, and ids it
     parses but the protocol rejects. *)
  let fill = {|{"id":4,"kind":"schedule","rounds":2,"trace":"t"}|} in
  List.iter
    (fun (line, code) ->
      let w = same ~handle:Server.handle_sync ~label:line ~fill line in
      check_bool (line ^ " answers " ^ code) true
        (error_code (Result.get_ok (Wire.parse w)) = Some code))
    [
      ({|{"id":1e999,"kind":"schedule","rounds":2,"trace":"t"}|}, "parse_error");
      ({|{"id":[1,},"kind":"schedule","rounds":2,"trace":"t"}|}, "parse_error");
      ({|{"id":tru,"kind":"schedule","rounds":2,"trace":"t"}|}, "parse_error");
      ({|{"id":4,"kind":"schedule","rounds":2,"trace":1e999}|}, "parse_error");
      ({|{"id":4,"kind":"schedule","rounds":2,"trace":"\uD800"}|}, "parse_error");
      ({|{"id":4,"kind":"schedule","rounds":2,"trace":[1,}}|}, "parse_error");
      ({|{"id":1.0,"kind":"schedule","rounds":2,"trace":"t"}|}, "invalid_request");
      ({|{"id":true,"kind":"schedule","rounds":2,"trace":"t"}|}, "invalid_request");
    ];
  (* An escaped key spells "id" without its bytes, and the parser reads
     that member first: the scan must not take the later one. *)
  let line = {|{"\u0069d":5,"id":1,"kind":"schedule","rounds":2}|} in
  let w =
    same ~handle:Server.handle_sync ~label:line
      ~fill:{|{"\u0069d":5,"id":0,"kind":"schedule","rounds":2}|} line
  in
  check_bool "the escaped id is the one echoed" true
    (Wire.member "id" (Result.get_ok (Wire.parse w)) = Some (Wire.Int 5))

(* The differential: random spellings of cheap cacheable requests, sent
   to a server whose frame entry for the spelling is already filled and
   to a fresh server; the two answers must be the same bytes. Spellings
   vary whitespace and member order and carry non-canonical and invalid
   ids and traces, duplicate id/trace members, escaped keys and
   timeouts. Generated ctx ids come from a process-wide counter, reset
   before each answer. *)

(* Which spellings the frame cache must answer: every value parses, the
   first id is one the protocol echoes, no top-level key is escaped and
   no timeout rides along. *)
let should_hit members =
  List.for_all
    (fun (k, v) ->
      not (String.contains k '\\' || List.mem v Gen.malformed_values))
    members
  && (not (List.mem_assoc "timeout_ms" members))
  &&
  match List.assoc_opt "id" members with
  | None -> true
  | Some v -> List.mem v Gen.echoable_ids

(* The first member spelled [name] (raw bytes, as the scan compares them)
   gets [value]: the spelling that shares a frame key with [s]. *)
let with_first name value members =
  let rec go = function
    | [] -> []
    | (k, _) :: rest when k = name -> (k, value) :: rest
    | m :: rest -> m :: go rest
  in
  go members

let diff_config =
  { Server.default_config with Server.jobs = 1; queue_depth = 8; cache_entries = 64; timeout_ms = None }

(* One warm server per differential, shared by its cases and stopped
   when the property ends ({!stopping_warm}). *)
let warm_server = ref None

let warm () =
  match !warm_server with
  | Some s -> s
  | None ->
      let s = Server.create ~config:diff_config () in
      warm_server := Some s;
      s

let stopping_warm (name, speed, run) =
  ( name,
    speed,
    fun x ->
      Fun.protect
        ~finally:(fun () ->
          Option.iter Server.stop !warm_server;
          warm_server := None)
        (fun () -> run x) )

let answer_fresh handle bytes =
  let fresh = Server.create ~config:diff_config () in
  Fun.protect ~finally:(fun () -> Server.stop fresh) @@ fun () ->
  Rvu_obs.Ctx.set_seed 0;
  handle fresh bytes

(* The warm answer, and whether the frame cache gave it. *)
let answer_warm handle ~fill bytes =
  let warm = warm () in
  for _ = 1 to 2 do
    ignore (handle warm fill : string)
  done;
  let hits () = (Server.frame_cache_stats warm).Lru.hits in
  let before = hits () in
  Rvu_obs.Ctx.set_seed 0;
  let answer = handle warm bytes in
  (answer, hits () > before)

let prop_json_warm_equals_fresh =
  QCheck.Test.make ~count:200 ~name:"JSON: a warm frame hit answers like a fresh server"
    (QCheck.make Gen.spelling_gen ~print:Gen.render_spelling)
    (fun s ->
      let line = Gen.render_spelling s in
      let fill =
        Gen.render_spelling
          { s with Gen.members = with_first "id" "0" (with_first "trace" {|"t"|} s.members) }
      in
      let warm, hit = answer_warm Server.handle_sync ~fill line in
      let fresh = answer_fresh Server.handle_sync line in
      if not (String.equal warm fresh) then
        QCheck.Test.fail_reportf "warm %s\nfresh %s" warm fresh;
      hit = should_hit s.Gen.members
      || QCheck.Test.fail_reportf "frame-cache hit %b, expected %b" hit (not hit))

(* Encode, turning every [Float 1.5] value's bits into a NaN's. *)
let encode_with_nans members =
  let p = Wb.encode (Wire.Obj members) in
  let pat = Wb.encode (Wire.Float 1.5) in
  let b = Bytes.of_string p in
  let n = String.length p and m = String.length pat in
  let i = ref 0 in
  while !i + m <= n do
    if String.sub p !i m = pat then begin
      Bytes.set_int64_be b (!i + 1) (Int64.bits_of_float Float.nan);
      i := !i + m
    end
    else incr i
  done;
  Bytes.to_string b

let prop_bin_warm_equals_fresh =
  QCheck.Test.make ~count:200 ~name:"binary: a warm frame hit answers like a fresh server"
    (QCheck.make Gen.bin_spelling_gen ~print:(fun m -> Wire.print (Wire.Obj m)))
    (fun members ->
      let payload = encode_with_nans members in
      let fill =
        encode_with_nans
          (with_first "id" (Wire.Int 0)
             (with_first "trace" (Wire.String "t") members))
      in
      let warm, hit = answer_warm Server.handle_payload_sync ~fill payload in
      let fresh = answer_fresh Server.handle_payload_sync payload in
      if not (String.equal warm fresh) then
        QCheck.Test.fail_reportf "warm %S\nfresh %S" warm fresh;
      let should_hit =
        (not (List.exists (fun (_, v) -> v = Wire.Float 1.5) members))
        && (not (List.mem_assoc "timeout_ms" members))
        &&
        match List.assoc_opt "id" members with
        | None | Some (Wire.Null | Wire.Int _ | Wire.String _) -> true
        | Some _ -> false
      in
      hit = should_hit
      || QCheck.Test.fail_reportf "frame-cache hit %b, expected %b" hit should_hit)

(* ------------------------------------------------------------------ *)
(* Framed transport: one session battery over pipes, for both front ends *)

(* One session over OS pipes. [serve] runs the front end's session on the
   server ends; [f] drives the client ends (oc: requests out, ic:
   responses in) and must close [oc] when it wants the session to see
   end-of-input. The session domain returning cleanly — never crashing,
   never hanging — is itself the property the hardening tests below rely
   on (a crash would surface in Domain.join, a hang as a test timeout). *)
let over_pipes serve f =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  let sic = Unix.in_channel_of_descr req_r in
  let soc = Unix.out_channel_of_descr resp_w in
  let domain =
    Domain.spawn (fun () ->
        serve sic soc;
        close_in_noerr sic;
        close_out_noerr soc)
  in
  let oc = Unix.out_channel_of_descr req_w in
  let ic = Unix.in_channel_of_descr resp_r in
  Fun.protect
    ~finally:(fun () ->
      close_out_noerr oc;
      Domain.join domain;
      close_in_noerr ic)
  @@ fun () -> f oc ic

(* Hold [server]'s one worker (jobs = 1) until [k]'s release runs, or [k]
   returns: a request whose answer blocks the worker that gives it, so
   every request the pool takes after it waits — slow by construction,
   whatever the caches hold. The release is idempotent; run [k] inside a
   session, so that the session can drain before it is joined. *)
let held server k =
  let lock = Mutex.create () and released = Condition.create () in
  let holding = ref true in
  (* A fresh server's first request misses every cache, so the pool
     answers it. *)
  Server.handle_line server {|{"id":0,"kind":"feasibility","v":3.25}|}
    ~respond:(fun _ ->
      Mutex.lock lock;
      while !holding do
        Condition.wait released lock
      done;
      Mutex.unlock lock);
  let release () =
    Mutex.lock lock;
    holding := false;
    Condition.broadcast released;
    Mutex.unlock lock
  in
  Fun.protect ~finally:release (fun () -> k release)

(* A front end under test, built with a config: [k] gets a session opener
   ([session f] runs one more session on the same front end, over its own
   pipes) and the server that computes its answers (the front end
   itself, or the router's shard). *)
let with_server config k =
  let server = Server.create ~config () in
  Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
  k (over_pipes (Server.serve_channels server)) server

(* The cluster router over one in-process shard: a real Server behind a
   real TCP socket, as in test_cluster. Each front end takes its own
   port. Both limits are raised by the router's envelope, so the router
   refuses past [config]'s limit, as a server does. *)
let routed_port = Atomic.make 7701

let with_router config k =
  let port = Atomic.fetch_and_add routed_port 1 in
  let max_request_bytes =
    config.Server.max_request_bytes + Router.envelope_bytes
  in
  let shard = Server.create ~config:{ config with max_request_bytes } () in
  let worker =
    Domain.spawn (fun () ->
        Server.serve_tcp shard ~host:"127.0.0.1" ~port ~connections:1 ())
  in
  let router =
    Router.create
      ~config:
        { Router.default_config with max_request_bytes; connect_timeout_ms = 5000. }
      ~endpoints:[ { Router.host = "127.0.0.1"; port; spawn = None } ]
      ()
  in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Domain.join worker;
      Server.stop shard)
  @@ fun () -> k (over_pipes (Router.serve_channels router)) shard

(* One session on a fresh front end. *)
let with_conn config f = with_server config (fun session _ -> session f)

let conn_config =
  {
    Server.default_config with
    Server.jobs = 1;
    queue_depth = 8;
    cache_entries = 8;
    timeout_ms = None;
  }

let expect_eof ic what =
  match input_char ic with
  | exception End_of_file -> ()
  | c -> Alcotest.failf "expected a clean close after %s, got byte %C" what c

let hello_line = "{\"id\":0,\"kind\":\"hello\",\"wire\":\"binary\"}\n"

(* The client side of the hello upgrade: JSON hello line, JSON ok
   response, then frames both ways. *)
let upgrade oc ic =
  output_string oc hello_line;
  flush oc;
  let hello = Result.get_ok (Wire.parse (input_line ic)) in
  check_bool "hello acknowledged in JSON" true
    (Wire.member "ok" hello = Some (Wire.Obj [ ("wire", Wire.String "binary") ]))

(* A front end runs one session with a config ([with_conn] for the
   server); [upgraded front] runs it past the hello. *)
let upgraded front config f = front config (fun oc ic -> upgrade oc ic; f oc ic)

(* A connection that dies inside the 4-byte length prefix: nothing to
   answer, nothing to desync — the server closes cleanly. *)
let test_frame_truncated_prefix () =
  upgraded with_conn conn_config @@ fun oc ic ->
  output_string oc "\x00\x00";
  close_out oc;
  expect_eof ic "a truncated length prefix"

(* A length prefix past max_request_bytes: the payload is never read, so
   the stream position is unknowable — answer invalid and close. *)
let case_oversized_length front () =
  front { conn_config with Server.max_request_bytes = 64 } @@ fun oc ic ->
  output_string oc "\x00\x01\x00\x00" (* announces 65536 bytes *);
  flush oc;
  (match Wb.input_frame ic with
  | Wb.Frame p ->
      let r = decode_bin_exn p in
      check_bool "oversized length answers invalid_request" true
        (error_code r = Some "invalid_request");
      let msg =
        match Wire.member "error" r with
        | Some err -> (
            match Wire.member "message" err with
            | Some (Wire.String m) -> m
            | _ -> Alcotest.fail "error without message")
        | None -> Alcotest.fail "no error member"
      in
      check_bool "message names the byte limit" true
        (contains ~needle:"exceeds the 64 byte limit" msg)
  | _ -> Alcotest.fail "no response frame for the oversized length");
  expect_eof ic "an oversized length"

(* A connection dropped mid-payload: the record never arrived whole, so
   there is nothing to answer — log and close, never block. *)
let case_midframe_drop front () =
  front conn_config @@ fun oc ic ->
  output_string oc "\x00\x00\x00\x0a1234" (* promises 10 bytes, sends 4 *);
  close_out oc;
  expect_eof ic "a mid-frame drop"

(* A confused client sends binary frames down a JSON connection: the
   frame bytes read as one garbage line and earn a parse_error — the
   front end neither crashes nor interprets them as framing. *)
let case_binary_on_json_conn front () =
  front conn_config @@ fun oc ic ->
  output_string oc (Wb.frame (Wb.encode (Wire.Int 5)));
  close_out oc;
  let r = Result.get_ok (Wire.parse (input_line ic)) in
  check_bool "binary frame on a JSON connection answers parse_error" true
    (error_code r = Some "parse_error");
  expect_eof ic "the parse_error response"

(* The hello upgrade, end to end over the default JSON start. *)
let case_hello_upgrade front () =
  upgraded front conn_config @@ fun oc ic ->
  let doc = Result.get_ok (Wire.parse {|{"id":1,"kind":"feasibility","v":2.0}|}) in
  Wb.output_frame oc (Wb.encode doc);
  flush oc;
  (match Wb.input_frame ic with
  | Wb.Frame p ->
      let r = decode_bin_exn p in
      check_bool "framed response is ok" true (error_code r = None);
      check_bool "id echoed through the upgrade" true
        (Wire.member "id" r = Some (Wire.Int 1))
  | _ -> Alcotest.fail "no framed response after the upgrade");
  close_out oc;
  match Wb.input_frame ic with
  | Wb.Eof -> ()
  | _ -> Alcotest.fail "upgraded connection did not close cleanly"

(* A client that upgrades and then forgets, sending a JSON line where a
   frame belongs: its '{' reads as a ~2 GiB length prefix, which trips
   the size limit — answer invalid and close rather than wait forever
   for gigabytes that are not coming. *)
let case_json_line_after_upgrade front () =
  upgraded front conn_config @@ fun oc ic ->
  output_string oc "{\"id\":1,\"kind\":\"stats\"}\n";
  flush oc;
  (match Wb.input_frame ic with
  | Wb.Frame p ->
      check_bool "desynced JSON line answers invalid_request" true
        (error_code (decode_bin_exn p) = Some "invalid_request")
  | _ -> Alcotest.fail "no response to the desynced line");
  match Wb.input_frame ic with
  | Wb.Eof -> ()
  | _ -> Alcotest.fail "connection not closed after the desync"

(* hello anywhere but first is connection state arriving too late:
   rejected with a structured error, and the connection keeps serving. *)
let case_midstream_hello_rejected front () =
  front conn_config @@ fun oc ic ->
  output_string oc "{\"id\":1,\"kind\":\"health\"}\n";
  flush oc;
  ignore (input_line ic : string);
  output_string oc "{\"id\":2,\"kind\":\"hello\",\"wire\":\"binary\"}\n";
  flush oc;
  let r = Result.get_ok (Wire.parse (input_line ic)) in
  check_bool "mid-stream hello rejected" true
    (error_code r = Some "invalid_request");
  (match Wire.member "error" r with
  | Some err -> (
      match Wire.member "message" err with
      | Some (Wire.String m) ->
          check_bool "names the first-record rule" true
            (contains ~needle:"first record" m)
      | _ -> Alcotest.fail "error without message")
  | None -> Alcotest.fail "no error member");
  output_string oc "{\"id\":3,\"kind\":\"health\"}\n";
  flush oc;
  let r = Result.get_ok (Wire.parse (input_line ic)) in
  check_bool "connection still serves JSON after the rejection" true
    (error_code r = None);
  close_out oc

(* ------------------------------------------------------------------ *)
(* Batches: a session answers every record a read brings, then flushes *)

let framed wire payload =
  match wire with Wb.Json -> payload ^ "\n" | Wb.Binary -> Wb.frame payload

let payload_of wire doc =
  Rvu_service.Conn.encode wire (Result.get_ok (Wire.parse doc))

let recv wire ic =
  match wire with
  | Wb.Json -> input_line ic
  | Wb.Binary -> (
      match Wb.input_frame ic with
      | Wb.Frame p -> p
      | _ -> Alcotest.fail "no answer frame")

let answer_id wire answer =
  match
    Option.bind
      (Result.to_option (Rvu_service.Conn.decode wire answer))
      (Wire.member "id")
  with
  | Some (Wire.Int id) -> id
  | _ -> Alcotest.failf "answer without an integer id: %S" answer

let fresh_answer wire payload =
  answer_fresh
    (match wire with
    | Wb.Json -> Server.handle_sync
    | Wb.Binary -> Server.handle_payload_sync)
    payload

(* Whether [fd] turns readable within [timeout] seconds. *)
let readable fd timeout =
  match Unix.select [ fd ] [] [] timeout with
  | [], _, _ -> false
  | _ -> true

(* [f wire] on a session of each wire: the JSON start, then one upgraded
   by the hello. *)
let on_both_wires front config f =
  front config (f Wb.Json);
  upgraded front config (f Wb.Binary)

(* Requests whose answers depend on nothing but themselves, so a fresh
   server's are the reference. *)
let burst_doc i =
  match i mod 4 with
  | 0 -> Printf.sprintf {|{"id":%d,"kind":"feasibility","v":%g}|} i (1.0 +. (float i /. 128.))
  | 1 -> Printf.sprintf {|{"id":%d,"kind":"bound","v":0.5,"d":%g,"r":0.4}|} i (1.0 +. (float i /. 128.))
  | 2 -> Printf.sprintf {|{"id":%d,"kind":"schedule","rounds":%d}|} i (1 + (i mod 3))
  | _ ->
      Printf.sprintf {|{"id":%d,"kind":"simulate","tau":0.5,"d":%g,"r":0.5,"bearing":0}|}
        i (1.0 +. (float i /. 128.))

(* A burst of records in one write, longer than the session's 4 KiB
   reader buffer, so records are cut across refills: every id is
   answered once, byte-equal to a fresh server. *)
let case_burst front () =
  let n = 128 in
  on_both_wires front { conn_config with Server.queue_depth = 2 * n }
  @@ fun wire oc ic ->
  let payloads = Array.init n (fun i -> payload_of wire (burst_doc (i + 1))) in
  let fresh = Array.map (fresh_answer wire) payloads in
  output_string oc (String.concat "" (Array.to_list (Array.map (framed wire) payloads)));
  flush oc;
  let answered = Array.make n 0 in
  for _ = 1 to n do
    let answer = recv wire ic in
    let id = answer_id wire answer in
    if id < 1 || id > n then Alcotest.failf "answer to no burst record: %S" answer;
    answered.(id - 1) <- answered.(id - 1) + 1;
    check_string (Printf.sprintf "answer %d like a fresh server's" id) fresh.(id - 1) answer
  done;
  Array.iteri
    (fun i k -> check_int (Printf.sprintf "id %d answered once" (i + 1)) 1 k)
    answered;
  close_out oc;
  expect_eof ic "the burst's answers"

(* A pool worker's answer, written while the session waits for input, is
   flushed at once: the client need not send more, or close, to get it. *)
let case_cold_answer_flushed front () =
  on_both_wires front conn_config @@ fun wire oc ic ->
  output_string oc
    (framed wire
       (payload_of wire
          {|{"id":1,"kind":"simulate","tau":0.5,"d":1.5,"r":0.5,"bearing":0}|}));
  flush oc;
  check_bool "answered with the input left open" true
    (readable (Unix.descr_of_in_channel ic) 10.0);
  let answer = recv wire ic in
  check_int "the simulate's id" 1 (answer_id wire answer);
  check_bool "answered ok" true
    (error_code (Result.get_ok (Rvu_service.Conn.decode wire answer)) = None);
  close_out oc;
  expect_eof ic "the cold answer"

(* A sync answer that shares a read with a slow simulate leaves when the
   session next waits, not when the simulate is done: the first bytes to
   arrive are exactly the health answer. The simulate waits behind a
   held worker until they have. *)
let case_sync_answer_first backend () =
  List.iter
    (fun wire ->
      backend conn_config @@ fun session worker ->
      session @@ fun oc ic ->
      if wire = Wb.Binary then upgrade oc ic;
      held worker @@ fun release ->
      output_string oc
        (framed wire
           (payload_of wire
              {|{"id":1,"kind":"simulate","tau":0.5,"d":1.5,"r":0.5,"bearing":0}|})
        ^ framed wire (payload_of wire {|{"id":2,"kind":"health"}|}));
      flush oc;
      let fd = Unix.descr_of_in_channel ic in
      check_bool "an answer within 10 s" true (readable fd 10.0);
      let buf = Bytes.create 65536 in
      let got = Bytes.sub_string buf 0 (Unix.read fd buf 0 65536) in
      let n = String.length got in
      let payload =
        match wire with
        | Wb.Json when n > 0 && String.index got '\n' = n - 1 -> String.sub got 0 (n - 1)
        | Wb.Binary when n >= 4 && String.get_int32_be got 0 = Int32.of_int (n - 4) ->
            String.sub got 4 (n - 4)
        | _ -> Alcotest.failf "the first bytes are not one answer: %S" got
      in
      check_int "the health answer came first, alone" 2 (answer_id wire payload);
      release ();
      let answer = recv wire ic in
      check_int "then the simulate's" 1 (answer_id wire answer);
      check_bool "answered ok" true
        (error_code (Result.get_ok (Rvu_service.Conn.decode wire answer)) = None);
      close_out oc;
      expect_eof ic "both answers")
    [ Wb.Json; Wb.Binary ]

(* Two sessions share a front end. Session A's simulate waits behind a
   held worker; its health answer shows the simulate was handed over.
   Session B sends a health request and ends its input: B's session ends
   at once, while A's request is still outstanding, since a session
   drains only its own answers. *)
let case_drain_own_answers backend () =
  backend conn_config @@ fun session worker ->
  session @@ fun oc_a ic_a ->
  held worker @@ fun release ->
  output_string oc_a
    ({|{"id":1,"kind":"simulate","tau":0.5,"d":1.5,"r":0.5,"bearing":0}|}
    ^ "\n" ^ {|{"id":2,"kind":"health"}|} ^ "\n");
  flush oc_a;
  check_int "A's health answer" 2 (answer_id Wb.Json (input_line ic_a));
  (session @@ fun oc_b ic_b ->
   (* Released however B's checks go, so that B's session can end. *)
   Fun.protect ~finally:release @@ fun () ->
   output_string oc_b ({|{"id":3,"kind":"health"}|} ^ "\n");
   close_out oc_b;
   check_int "B's health answer" 3 (answer_id Wb.Json (input_line ic_b));
   check_bool "B's session ends within 5 s" true
     (readable (Unix.descr_of_in_channel ic_b) 5.0);
   expect_eof ic_b "B's answer";
   check_bool "A's simulate is still outstanding" false
     (readable (Unix.descr_of_in_channel ic_a) 0.0));
  let answer = input_line ic_a in
  check_int "then A's simulate" 1 (answer_id Wb.Json answer);
  check_bool "answered ok" true (error_code (Result.get_ok (Wire.parse answer)) = None);
  close_out oc_a;
  expect_eof ic_a "A's answers"

(* Every refusal — a parse error, an invalid request (not an object, a
   bad id, a bad fan-out member), a mid-stream hello and an oversized
   record — answers the same bytes from both front ends on both wires,
   counts as an error on a server (a router's own refusals reach no
   shard, so its shards count none) and logs its front end's message:
   the bytes and messages [rvu serve] and [rvu router] gave before they
   shared one refusal path each. A null id's ctx is the first generated
   under seed 0. *)
let test_refusals () =
  let null_ctx = "ce220a8397b1dcdaf" in
  let refused ?(id = "null") ?(ctx = null_ctx) code msg =
    Printf.sprintf {|{"id":%s,"ctx":"%s","error":{"code":"%s","message":%s}}|}
      id ctx code (Wire.print (Wire.String msg))
  in
  let invalid ?id ?ctx msg = refused ?id ?ctx "invalid_request" msg in
  let refusals wire =
    let record doc = payload_of wire doc in
    [
      ( (match wire with Wb.Json -> "not json" | Wb.Binary -> "\xff"),
        refused "parse_error"
          (match wire with
          | Wb.Json -> "line 1, col 1: invalid literal (expected null)"
          | Wb.Binary -> "offset 0: unknown tag 0xff"),
        `Parse );
      (record "[1]", invalid "expected a request object, got array", `Invalid);
      ( record {|{"id":1.5,"kind":"health"}|},
        invalid {|field "id": expected an integer or string, got number|},
        `Invalid );
      ( record {|{"id":5,"kind":"hello","wire":"binary"}|},
        invalid ~id:"5" ~ctx:"req-5" "hello must be the first record on a connection",
        `Invalid );
      ( record {|{"id":6,"kind":"metrics","format":"nope"}|},
        invalid ~id:"6" ~ctx:"req-6"
          {|field "format": expected "json" or "prometheus", got "nope"|},
        `Invalid );
    ]
  in
  let oversized wire =
    match wire with
    | Wb.Json -> ({|{"id":7,"pad":"|} ^ String.make 300 'x' ^ {|"}|}, 317)
    | Wb.Binary -> (String.make 300 'x', 300)
  in
  Log.configure ~level:Log.Warn (Log.Ring 256);
  Fun.protect ~finally:Log.close @@ fun () ->
  List.iter
    (fun (front, backend, log, errors) ->
      List.iter
        (fun wire ->
          backend { conn_config with Server.max_request_bytes = 256 }
          @@ fun session _ ->
          let expect what record answer kind ic =
            let seen = List.length (Log.ring_contents ()) in
            Rvu_obs.Ctx.set_seed 0;
            record ();
            let label = Printf.sprintf "%s, %s wire: %s" front (Wb.mode_string wire) what in
            check_string (label ^ " answer") answer (recv wire ic);
            let logged =
              List.filteri (fun i _ -> i >= seen) (Log.ring_contents ())
              |> List.filter_map (fun l ->
                     match log_field "msg" l with
                     | Some (Wire.String m) -> Some (m, l)
                     | _ -> None)
            in
            match (log kind, logged) with
            | None, [] -> ()
            | Some (msg, field, value), [ (m, l) ] ->
                check_string (label ^ " log message") msg m;
                check_bool (label ^ " log field " ^ field) true
                  (log_field field l = Some value)
            | _ -> Alcotest.failf "%s: %d log records" label (List.length logged)
          in
          (session @@ fun oc ic ->
           if wire = Wb.Binary then upgrade oc ic;
           List.iter
             (fun (record, answer, kind) ->
               let msg =
                 match Wire.parse answer with
                 | Ok w -> Option.bind (Wire.member "error" w) (Wire.member "message")
                 | Error _ -> None
               in
               expect (String.escaped record)
                 (fun () ->
                   output_string oc (framed wire record);
                   flush oc)
                 (Rvu_service.Conn.encode wire (Result.get_ok (Wire.parse answer)))
                 (kind, Option.get msg) ic)
             (refusals wire);
           let big, bytes = oversized wire in
           let msg = Rvu_service.Conn.too_large wire bytes ~limit:256 in
           expect "an oversized record"
             (fun () ->
               output_string oc (framed wire big);
               flush oc)
             (Rvu_service.Conn.encode wire (Result.get_ok (Wire.parse (invalid msg))))
             (`Oversized bytes, Wire.String msg) ic;
           close_out oc);
          session @@ fun oc ic ->
          output_string oc ({|{"id":8,"kind":"stats"}|} ^ "\n");
          close_out oc;
          let stats = Option.get (Wire.member "ok" (Result.get_ok (Wire.parse (input_line ic)))) in
          let count =
            match
              List.fold_left
                (fun w k -> Option.bind w (Wire.member k))
                (Some stats) errors
            with
            | Some (Wire.Int n) -> n
            | _ -> Alcotest.failf "%s: no errors count" front
          in
          check_int
            (Printf.sprintf "%s, %s wire: errors counted" front (Wb.mode_string wire))
            (if front = "server" then 6 else 0)
            count)
        [ Wb.Json; Wb.Binary ])
    [
      ( "server",
        with_server,
        (function
        | `Parse, m -> Some ("request parse error", "error", m)
        | `Invalid, m -> Some ("request invalid", "error", m)
        | `Oversized bytes, _ -> Some ("request rejected: oversized", "bytes", Wire.Int bytes)),
        [ "requests"; "errors" ] );
      ( "router",
        with_router,
        (function
        | `Parse, m -> Some ("request parse error", "error", m)
        | `Invalid, m -> Some ("request rejected", "error", m)
        | `Oversized _, _ -> None),
        [ "aggregate"; "requests"; "errors" ] );
    ]

(* A line past max_request_bytes is counted to its newline, never held
   whole: answered invalid_request with its full length, and the next
   line on the connection is served. A line just past the limit, which
   a read can bring whole, is answered the same way. *)
let case_oversized_line front () =
  front { conn_config with Server.max_request_bytes = 256 } @@ fun oc ic ->
  let line pad = {|{"id":1,"pad":"|} ^ String.make pad 'x' ^ {|"}|} in
  let long = line 2000 and just_over = line 240 in
  output_string oc
    (long ^ "\n" ^ just_over ^ "\n" ^ {|{"id":2,"kind":"health"}|} ^ "\n");
  flush oc;
  List.iter
    (fun l ->
      let r = Result.get_ok (Wire.parse (input_line ic)) in
      check_bool "an oversized line answers invalid_request" true
        (error_code r = Some "invalid_request");
      check_bool "its message names its length and the limit" true
        (Option.bind (Wire.member "error" r) (Wire.member "message")
        = Some
            (Wire.String
               (Printf.sprintf
                  "request line of %d bytes exceeds the 256 byte limit"
                  (String.length l)))))
    [ long; just_over ];
  let r = Result.get_ok (Wire.parse (input_line ic)) in
  check_bool "the next line is served" true
    (Wire.member "id" r = Some (Wire.Int 2) && error_code r = None);
  close_out oc;
  expect_eof ic "the next line's answer"

(* write(2) calls this process has made, when /proc says. *)
let syscw () =
  match In_channel.with_open_text "/proc/self/io" In_channel.input_all with
  | exception Sys_error _ -> None
  | io ->
      List.find_map
        (fun l -> Scanf.sscanf_opt l "syscw: %d" Fun.id)
        (String.split_on_char '\n' io)

(* 32 pipelined health lines in one write cost two write(2) calls in all:
   the client's, and one for the server's 32 answers. *)
let test_pipelined_answers_one_write () =
  if syscw () = None then Alcotest.skip ();
  with_conn conn_config @@ fun oc ic ->
  let before = Option.get (syscw ()) in
  output_string oc
    (String.concat ""
       (List.init 32 (fun i -> Printf.sprintf "{\"id\":%d,\"kind\":\"health\"}\n" (i + 1))));
  flush oc;
  (* Checked after the count: each check writes to the test's log. *)
  let ids = List.init 32 (fun _ -> answer_id Wb.Json (input_line ic)) in
  let writes = Option.get (syscw ()) - before in
  check_bool "answers in order" true (ids = List.init 32 succ);
  check_bool (Printf.sprintf "%d write(2) calls, at most 2" writes) true (writes <= 2);
  close_out oc

(* Every socket Conn opens is close-on-exec: a child spawned while a
   session runs, as the router spawns its workers, holds none of them —
   not the listener, the accepted connection or the client's socket. *)
let test_sockets_close_on_exec () =
  let module Conn = Rvu_service.Conn in
  let port = 7699 in
  let spawned = ref [] in
  let sockets pid =
    let dir = Printf.sprintf "/proc/%d/fd" pid in
    Array.to_list (Sys.readdir dir)
    |> List.filter_map (fun fd ->
           match Unix.readlink (Filename.concat dir fd) with
           | link when String.starts_with ~prefix:"socket:" link -> Some link
           | _ | (exception Unix.Unix_error _) -> None)
  in
  let listener =
    Domain.spawn (fun () ->
        Conn.listen ~name:"cloexec" ~host:"127.0.0.1" ~port ~connections:1
          ~run:(fun job -> job ())
          (fun _ic _oc ->
            let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
            let pid =
              Unix.create_process "sleep" [| "sleep"; "30" |] null null null
            in
            Unix.close null;
            (* Wait for the exec, which drops close-on-exec descriptors. *)
            let rec execed tries =
              tries = 0
              || (match Unix.readlink (Printf.sprintf "/proc/%d/exe" pid) with
                 | exe -> Filename.basename exe = "sleep"
                 | exception Unix.Unix_error _ -> false)
              || (Unix.sleepf 0.01; execed (tries - 1))
            in
            ignore (execed 200 : bool);
            spawned := sockets pid;
            Unix.kill pid Sys.sigkill;
            ignore (Unix.waitpid [] pid)))
  in
  let addr = Unix.ADDR_INET (Unix.inet_addr_loopback, port) in
  let rec connect tries =
    match Conn.connect Wb.Json addr with
    | c -> c
    | exception Unix.Unix_error _ when tries > 0 ->
        Unix.sleepf 0.02;
        connect (tries - 1)
  in
  let c = connect 250 in
  expect_eof c.ic "the session";
  close_in_noerr c.ic;
  Domain.join listener;
  check_bool
    (Printf.sprintf "the child held no socket (held %s)" (String.concat ", " !spawned))
    true (!spawned = [])

(* The cases every front end's session must pass, given the front end
   ([with_server] or [with_router]). *)
let battery backend =
  let front config f = backend config (fun session _ -> session f) in
  List.map
    (fun (name, case) -> Alcotest.test_case name `Quick case)
    [
      ("binary frame on a JSON connection", case_binary_on_json_conn front);
      ("hello upgrade serves frames", case_hello_upgrade front);
      ("JSON line after upgrade answers and closes", case_json_line_after_upgrade front);
      ("mid-stream hello rejected", case_midstream_hello_rejected front);
      ( "oversized length after upgrade answers and closes",
        case_oversized_length (upgraded front) );
      ("mid-frame drop after upgrade closes cleanly", case_midframe_drop (upgraded front));
      ("a burst in one write, answered once each", case_burst front);
      ("a cold answer flushed with the input open", case_cold_answer_flushed front);
      ("a sync answer leaves before a slow one", case_sync_answer_first backend);
      ("an oversized line answers and resyncs", case_oversized_line front);
      ("a session drains only its own answers", case_drain_own_answers backend);
    ]

(* Results that overflow a double. A bound with τ within 1e-4 of 1 has an
   infinite Theorem 3 time, answered null next to its exact round; a
   schedule past round ~1000 has infinite phase times that no wire can
   carry, answered [internal]. Three copies per wire through one session
   (upgraded by the hello for frames) — cold, from the result cache, from
   the frame cache — each get one answer, byte-equal to a fresh server's,
   and the session still ends at end of input (a request left unanswered
   would hang its drain). *)
let test_overflowing_results_answered () =
  let module Conn = Rvu_service.Conn in
  let docs =
    [
      ( {|{"kind":"bound","tau":1.0001367485251258,"v":1.5174448807764493,"phi":1.4899292150243355,"d":1.9375198218737504,"r":0.2}|},
        None );
      ({|{"kind":"schedule","rounds":1100}|}, Some "internal");
    ]
  in
  List.iter
    (fun (wire, handle_sync) ->
      List.iter
        (fun (doc, code) ->
          let record = Conn.encode wire (Result.get_ok (Wire.parse doc)) in
          let fresh = answer_fresh handle_sync record in
          let answer = Result.get_ok (Conn.decode wire fresh) in
          check_bool (doc ^ " answered with its expected code") true
            (error_code answer = code);
          if code = None then
            check_bool "Theorem 3's time is null next to its round" true
              (Option.bind (Wire.member "ok" answer) (Wire.member "theorem3")
              = Some (Wire.Obj [ ("round", Wire.Int 7313); ("time", Wire.Null) ]));
          let server = Server.create ~config:conn_config () in
          Fun.protect ~finally:(fun () -> Server.stop server) @@ fun () ->
          over_pipes (Server.serve_channels server) @@ fun oc ic ->
          if wire = Wb.Binary then upgrade oc ic;
          for copy = 1 to 3 do
            Rvu_obs.Ctx.set_seed 0;
            Conn.write wire oc record;
            check_string
              (Printf.sprintf "%s copy %d answered like a fresh server" doc copy)
              fresh
              (match wire with
              | Wb.Json -> input_line ic
              | Wb.Binary -> (
                  match Wb.input_frame ic with
                  | Wb.Frame p -> p
                  | _ -> Alcotest.failf "%s copy %d unanswered" doc copy))
          done;
          check_int "the third copy was a frame-cache hit" 1
            (Server.frame_cache_stats server).Lru.hits;
          close_out oc;
          expect_eof ic "the last answer")
        docs)
    [ (Wb.Json, Server.handle_sync); (Wb.Binary, Server.handle_payload_sync) ]

(* Round 28 is the last whose segment count, 2^60 + 4577, fits an int:
   its row carries that count and finite times on both wires. *)
let test_schedule_last_round () =
  let module Conn = Rvu_service.Conn in
  List.iter
    (fun (wire, handle_sync) ->
      let answer =
        Conn.encode wire
          (Wire.Obj
             [ ("kind", Wire.String "schedule"); ("rounds", Wire.Int 28) ])
        |> answer_fresh handle_sync |> Conn.decode wire |> Result.get_ok
      in
      match
        Option.bind (Wire.member "ok" answer) (Wire.member "rounds")
      with
      | Some (Wire.List rows) ->
          let last = List.nth rows 27 in
          check_bool "round 28's segment count" true
            (Wire.member "segments" last = Some (Wire.Int 1152921504606851553));
          List.iter
            (fun k ->
              check_bool (k ^ " is finite") true
                (match Wire.member k last with
                | Some (Wire.Float f) -> Float.is_finite f
                | _ -> false))
            [ "s"; "inactive_start"; "active_start"; "round_end" ]
      | _ -> Alcotest.fail "rounds 28: no rows")
    [ (Wb.Json, Server.handle_sync); (Wb.Binary, Server.handle_payload_sync) ]

let () =
  Alcotest.run "service"
    [
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_roundtrip;
          Alcotest.test_case "value forms" `Quick test_parse_values;
          Alcotest.test_case "malformed inputs" `Quick test_parse_errors;
          Alcotest.test_case "non-finite floats rejected" `Quick
            test_print_rejects_nonfinite;
        ] );
      ( "wire_bin",
        [
          QCheck_alcotest.to_alcotest prop_bin_roundtrip;
          QCheck_alcotest.to_alcotest prop_bin_canonical;
          Alcotest.test_case "float edge cases carry their bits" `Quick
            test_bin_float_edges;
          Alcotest.test_case "non-finite floats rejected both ways" `Quick
            test_bin_nonfinite_policy;
          Alcotest.test_case "malformed payloads rejected" `Quick
            test_bin_decode_malformed;
          Alcotest.test_case "every protocol shape round-trips" `Quick
            test_bin_proto_shapes;
        ] );
      ( "lru",
        [
          Alcotest.test_case "eviction order and stats" `Quick
            test_lru_eviction_order;
          Alcotest.test_case "zero capacity" `Quick test_lru_zero_capacity;
        ] );
      ( "proto",
        [
          Alcotest.test_case "defaults match the CLI" `Quick
            test_proto_defaults_match_cli;
          Alcotest.test_case "invalid requests" `Quick
            test_proto_invalid_requests;
          Alcotest.test_case "canonical cache key" `Quick
            test_proto_canonical_key;
          Alcotest.test_case "encode/decode inverse" `Quick
            test_proto_encode_decode;
        ] );
      ( "bit identity",
        [
          Alcotest.test_case "simulate = Engine.run" `Quick
            test_simulate_bit_identical;
          Alcotest.test_case "search = Search_engine.run" `Quick
            test_search_bit_identical;
        ] );
      ( "server",
        [
          Alcotest.test_case "overload sheds, never hangs" `Quick
            test_server_overload_sheds;
          Alcotest.test_case "result cache hits" `Quick test_server_cache_hits;
          Alcotest.test_case "queue-wait timeout" `Quick test_server_timeout;
          Alcotest.test_case "malformed lines answered" `Quick
            test_server_malformed_lines;
          Alcotest.test_case "metrics endpoint reconciles" `Quick
            test_server_metrics_endpoint;
          Alcotest.test_case "injected fault is fully correlated" `Quick
            test_server_fault_correlation;
          Alcotest.test_case "trace spans carry the request ctx" `Quick
            test_server_trace_span_ctx;
          Alcotest.test_case "health probe" `Quick test_server_health_probe;
          Alcotest.test_case "loadgen counts and summaries" `Quick
            test_loadgen_summary;
          Alcotest.test_case "loadgen wait wakes on the last response" `Quick
            test_loadgen_wait_wakes;
        ] );
      ( "binary path",
        [
          Alcotest.test_case "differential against the JSON path" `Quick
            test_bin_json_differential;
          Alcotest.test_case "torn frame answers parse_error" `Quick
            test_bin_torn_frame_fault;
          Alcotest.test_case "warm allocation ceiling" `Quick
            test_bin_warm_allocation_ceiling;
          Alcotest.test_case "JSON warm allocation ceiling" `Quick
            test_json_warm_allocation_ceiling;
          Alcotest.test_case "metrics endpoint reconciles (binary)" `Quick
            test_server_metrics_endpoint_binary;
          Alcotest.test_case "warm hits answer like cold servers" `Quick
            test_warm_answers_like_cold;
          stopping_warm
            (QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0x19; 0xf4a3e |])
               prop_json_warm_equals_fresh);
          stopping_warm
            (QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0x19; 0xb1a5 |])
               prop_bin_warm_equals_fresh);
        ] );
      ( "framed transport",
        [
          Alcotest.test_case "truncated length prefix" `Quick
            test_frame_truncated_prefix;
          Alcotest.test_case "refusals keep their bytes, count and log" `Quick
            test_refusals;
          Alcotest.test_case "overflowing results answered on both wires"
            `Quick test_overflowing_results_answered;
          Alcotest.test_case "schedule's last round on both wires" `Quick
            test_schedule_last_round;
          Alcotest.test_case "pipelined answers leave in one write" `Quick
            test_pipelined_answers_one_write;
          Alcotest.test_case "sockets are close-on-exec" `Quick
            test_sockets_close_on_exec;
        ]
        @ battery with_server );
      ("routed transport", battery with_router);
    ]
