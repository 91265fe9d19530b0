(* Tests for Rvu_cluster: the rendezvous ring (determinism, balance,
   minimal disruption on eviction), the byte-span framing that keeps
   routed responses bit-identical to a direct server's, the exact merge
   arithmetic behind fan-out aggregation (ISSUE 7's reconciliation
   property: each aggregate equals the sum of its per-shard values), and
   a live router over in-process TCP workers. *)

open Rvu_core
module Wire = Rvu_service.Wire
module Proto = Rvu_service.Proto
module Server = Rvu_service.Server
module Ring = Rvu_cluster.Ring
module Frame = Rvu_cluster.Frame
module Merge = Rvu_cluster.Merge
module Metrics = Rvu_obs.Metrics
module Router = Rvu_cluster.Router

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Ring *)

(* A synthetic routing key: what Frame.routing_parts yields for a
   canonical simulate line with the id span blanked. *)
let key_parts i =
  [ Printf.sprintf "{\"kind\":\"simulate\",\"d\":%d." i; "5}" ]

let test_ring_deterministic () =
  let parts = key_parts 7 in
  check_bool "score is a pure function" true
    (Ring.score ~shard:3 ~parts = Ring.score ~shard:3 ~parts);
  check_bool "separator fold: [ab;c] <> [a;bc]" true
    (Ring.score ~shard:0 ~parts:[ "ab"; "c" ]
    <> Ring.score ~shard:0 ~parts:[ "a"; "bc" ]);
  let live = [| true; true; true; true |] in
  check_bool "pick is deterministic" true
    (Ring.pick ~live ~parts = Ring.pick ~live ~parts);
  check_bool "no live shard routes nowhere" true
    (Ring.pick ~live:[| false; false; false |] ~parts = None)

(* Scores, picks and orders pinned to the values the scheme has always
   produced: a change to the hash (the FNV-1a fold, the separator byte,
   the shard mix) would move every cached key to another shard. *)
let test_ring_pinned () =
  List.iter
    (fun (shard, parts, expected) ->
      check_bool
        (Printf.sprintf "score %d [%s]" shard (String.concat ";" parts))
        true
        (Ring.score ~shard ~parts = expected))
    [
      (0, key_parts 7, -2129296543349391346L);
      (3, [ "ab"; "c" ], 7496479211273932353L);
      (1, [], 4060990635338107402L);
    ];
  let live = Array.make 4 true in
  List.iter
    (fun (i, pick, order) ->
      check_bool (Printf.sprintf "pick of key %d" i) true
        (Ring.pick ~live ~parts:(key_parts i) = Some pick);
      check_bool (Printf.sprintf "order of key %d" i) true
        (Ring.order ~shards:5 ~parts:(key_parts i) = order))
    [
      (0, 1, [| 1; 2; 4; 0; 3 |]);
      (1, 0, [| 0; 3; 2; 4; 1 |]);
      (2, 3, [| 3; 0; 2; 1; 4 |]);
      (42, 2, [| 4; 2; 3; 1; 0 |]);
    ]

let test_ring_balance () =
  let shards = 4 and n = 4000 in
  let counts = Array.make shards 0 in
  let live = Array.make shards true in
  for i = 0 to n - 1 do
    match Ring.pick ~live ~parts:(key_parts i) with
    | Some s -> counts.(s) <- counts.(s) + 1
    | None -> Alcotest.fail "no shard picked"
  done;
  (* Uniform would be 0.25 each; a skew past [0.15, 0.35] on 4000 keys
     would mean the mix is broken, not unlucky. *)
  Array.iteri
    (fun s c ->
      let frac = float_of_int c /. float_of_int n in
      check_bool
        (Printf.sprintf "shard %d holds a fair share (got %.3f)" s frac)
        true
        (frac > 0.15 && frac < 0.35))
    counts

let test_ring_minimal_disruption () =
  let shards = 4 and n = 1000 in
  let all = Array.make shards true in
  let dead = 2 in
  let without = Array.init shards (fun i -> i <> dead) in
  let moved = ref 0 in
  for i = 0 to n - 1 do
    let parts = key_parts i in
    let before = Option.get (Ring.pick ~live:all ~parts) in
    let after = Option.get (Ring.pick ~live:without ~parts) in
    (* The preference order is a property of the key alone; liveness only
       selects the first live entry. That statement IS minimal
       disruption: killing a shard moves exactly its own keys, each to
       its second choice, and re-admission brings exactly them back. *)
    let order = Ring.order ~shards ~parts in
    check_int "pick = first live in order" order.(0) before;
    if before = dead then begin
      incr moved;
      check_int "an orphaned key falls to its second choice" order.(1) after
    end
    else check_int "an unaffected key keeps its shard" before after
  done;
  check_bool "the dead shard owned some keys" true (!moved > 0)

(* ------------------------------------------------------------------ *)
(* Frame *)

let test_frame_routing_parts () =
  let a = {|{"id":1,"kind":"simulate","d":1.5,"timeout_ms":50}|} in
  let b = {|{"id":202,"kind":"simulate","d":1.5,"timeout_ms":9.75}|} in
  let c = {|{"id":1,"kind":"simulate","d":1.51,"timeout_ms":50}|} in
  check_bool "id and timeout_ms are masked out of the key" true
    (Frame.routing_parts a = Frame.routing_parts b);
  check_bool "the payload still keys" true
    (Frame.routing_parts a <> Frame.routing_parts c);
  check_bool "a string id is masked too" true
    (Frame.routing_parts {|{"id":"x","kind":"health"}|}
    = Frame.routing_parts {|{"id":"yy","kind":"health"}|})

let test_frame_forward_parts () =
  let line = {|{"kind":"health","id":"abc"}|} in
  let pre, post = Frame.forward_parts line in
  let forwarded = pre ^ "42" ^ post in
  (match Wire.parse forwarded with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w ->
      (* Duplicate "id" members are legal JSON; Wire.member takes the
         first, so the worker sees the router's id while the client's
         own spelling rides along untouched. *)
      check_bool "the prepended router id wins" true
        (Wire.member "id" w = Some (Wire.Int 42)));
  check_string "everything after '{' is the client's bytes"
    {|{"id":42,"kind":"health","id":"abc"}|}
    forwarded;
  let pre, post = Frame.forward_parts "{}" in
  check_string "an empty object closes cleanly" {|{"id":7}|}
    (pre ^ "7" ^ post)

let test_frame_response_splice () =
  let line = {|{"id":17,"ctx":"req-17","ok":{"t":129.42477041723}}|} in
  match Frame.response_spans line with
  | None -> Alcotest.fail "fast-path spans not found"
  | Some (rid, id_span, ctx_span) ->
      check_int "router id decoded" 17 rid;
      check_bool "ctx span found" true (ctx_span <> None);
      check_string "only the id and ctx bytes change"
        {|{"id":"cli","ctx":"req-cli","ok":{"t":129.42477041723}}|}
        (Frame.splice_response line ~id_span ~ctx_span ~id:{|"cli"|}
           ~ctx:{|"req-cli"|})

let test_frame_response_without_ctx () =
  (* Our workers always print ctx, but the splicer must not depend on
     it: a missing span gets the router's ctx inserted after the id. *)
  let line = {|{"id":3,"ok":{"n":1}}|} in
  match Frame.response_spans line with
  | None -> Alcotest.fail "fast-path spans not found"
  | Some (rid, id_span, ctx_span) ->
      check_int "router id decoded" 3 rid;
      check_bool "no ctx span" true (ctx_span = None);
      check_string "ctx inserted"
        {|{"id":9,"ctx":"req-9","ok":{"n":1}}|}
        (Frame.splice_response line ~id_span ~ctx_span ~id:"9"
           ~ctx:{|"req-9"|})

let test_frame_salvaged_null_id_falls_back () =
  (* A worker that salvaged a null id is not the fast-path shape; the
     router falls back to a full parse for those. *)
  check_bool "null id is not the fast path" true
    (Frame.response_spans {|{"id":null,"error":{"code":"parse_error"}}|}
    = None);
  check_bool "a non-object is not the fast path" true
    (Frame.response_spans "[1,2]" = None)

(* Frame properties. The router splices by byte offset, so a mis-scan
   would hand one client another client's answer: over shard replies the
   server's own renderers produce on both codecs, the scans find exactly
   the id and ctx spans and the splice equals the direct render under the
   client's id and ctx; over damaged bytes no scan raises or returns a
   span out of bounds or out of order. *)

module Wb = Rvu_service.Wire_bin
module Conn = Rvu_service.Conn
module Payload = Rvu_service.Payload
module Envelope = Rvu_service.Envelope

(* Strings with escapes, control bytes and multi-byte UTF-8. *)
let awkward_string_gen =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (int_bound 6)
         (oneofl
            [ "a"; "7"; "req-"; "\""; "\\"; "/"; "\n"; "\t"; "\x01"; "\x7f";
              "\xc3\xa9"; "\xe6\x97\xa5"; "\xf0\x9f\x98\x80" ])))

let client_id_gen =
  QCheck.Gen.(
    frequency
      [
        (2, map (fun i -> Wire.Int i) int);
        (2, map (fun s -> Wire.String s) awkward_string_gen);
        (1, return Wire.Null);
      ])

type reply = {
  wire : Wb.mode;
  rid : int;  (** the router's id, as the shard echoes it *)
  shard_ctx : string;
  id : Wire.t;  (** the client's id *)
  ctx : string;  (** the client's ctx *)
  body : (Wire.t, Proto.error_code * string) result;
}

let reply_gen =
  let open QCheck.Gen in
  let+ wire = oneofl [ Wb.Json; Wb.Binary ]
  and+ rid = map (fun i -> i land max_int) int
  and+ shard_ctx = awkward_string_gen
  and+ id = client_id_gen
  and+ ctx = awkward_string_gen
  and+ body =
    frequency
      [
        (3, map Result.ok Gen.wire_gen);
        ( 1,
          map2
            (fun code msg -> Error (code, msg))
            (oneofl
               Proto.
                 [ Parse_error; Invalid_request; Overloaded; Timeout; Internal ])
            awkward_string_gen );
      ]
  in
  { wire; rid; shard_ctx; id; ctx; body }

(* A reply as the server renders it: an ok body through the payload
   splice, an error through the protocol's error envelope. *)
let render wire ~ctx ~id = function
  | Ok body ->
      (match wire with Wb.Json -> Payload.ok_json | Wb.Binary -> Payload.ok_bin)
        (Payload.of_wire body) ~ctx ~id
  | Error (code, msg) ->
      Conn.encode wire (Proto.error_response ~ctx ~id code msg)

let print_reply r =
  String.escaped (render r.wire ~ctx:r.shard_ctx ~id:(Wire.Int r.rid) r.body)
  ^ " -> id " ^ Wire.print r.id ^ ", ctx " ^ Wire.print (Wire.String r.ctx)

let prop_splice_equals_direct =
  QCheck.Test.make ~count:1000
    ~name:"scans find the id and ctx spans; splice = direct render"
    (QCheck.make ~print:print_reply reply_gen)
    (fun r ->
      let shard = render r.wire ~ctx:r.shard_ctx ~id:(Wire.Int r.rid) r.body in
      let direct = render r.wire ~ctx:r.ctx ~id:r.id r.body in
      let id = Conn.encode r.wire r.id
      and ctx = Conn.encode r.wire (Wire.String r.ctx) in
      let spans_exact rid (is, ie) (cs, ce) =
        rid = r.rid
        && String.sub shard is (ie - is) = Conn.encode r.wire (Wire.Int r.rid)
        && String.sub shard cs (ce - cs)
           = Conn.encode r.wire (Wire.String r.shard_ctx)
      in
      match r.wire with
      | Wb.Json -> (
          match Frame.response_spans shard with
          | Some (rid, id_span, (Some c as ctx_span)) ->
              spans_exact rid id_span c
              && Frame.splice_response shard ~id_span ~ctx_span ~id ~ctx
                 = direct
          | _ -> false)
      | Wb.Binary -> (
          match Frame.bin_response_spans shard with
          | Some (rid, id_span, ctx_span) ->
              spans_exact rid id_span ctx_span
              && Frame.bin_splice_response shard ~id_span ~ctx_span ~id ~ctx
                 = direct
          | None -> false))

(* A request carrying every envelope member the scan reports. *)
let request_gen =
  let open QCheck.Gen in
  let+ wire = oneofl [ Wb.Json; Wb.Binary ]
  and+ id = client_id_gen
  and+ trace = awkward_string_gen
  and+ body = Gen.wire_gen in
  Conn.encode wire
    (Wire.Obj
       [
         ("id", id);
         ("kind", Wire.String "simulate");
         ("trace", Wire.String trace);
         ("timeout_ms", Wire.Float 5.0);
         ("body", body);
       ])

type damage = Truncate of int | Flip of int * int | Insert of int * string

let damage_gen =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Truncate i) nat;
        map2 (fun i b -> Flip (i, b)) nat (int_bound 255);
        map2 (fun i s -> Insert (i, s)) nat
          (oneof [ awkward_string_gen; string_size (int_bound 4) ]);
      ])

let apply s = function
  | Truncate i -> String.sub s 0 (i mod (String.length s + 1))
  | Flip (_, _) when s = "" -> s
  | Flip (i, b) ->
      let bytes = Bytes.of_string s in
      let i = i mod Bytes.length bytes in
      let c = Char.code (Bytes.get bytes i) lxor (b lor 1) in
      Bytes.set bytes i (Char.chr c);
      Bytes.to_string bytes
  | Insert (i, ins) ->
      let i = i mod (String.length s + 1) in
      String.sub s 0 i ^ ins ^ String.sub s i (String.length s - i)

let damaged_gen =
  let open QCheck.Gen in
  let+ base =
    oneof
      [
        map
          (fun r -> render r.wire ~ctx:r.shard_ctx ~id:(Wire.Int r.rid) r.body)
          reply_gen;
        request_gen;
      ]
  and+ damage = list_size (int_range 1 3) damage_gen in
  List.fold_left apply base damage

let prop_scans_total =
  QCheck.Test.make ~count:2000
    ~name:"scans of damaged bytes never raise; spans in bounds, ordered"
    (QCheck.make ~print:String.escaped damaged_gen)
    (fun s ->
      let n = String.length s in
      let rec ordered pos = function
        | [] -> true
        | (a, b) :: rest -> pos <= a && a <= b && b <= n && ordered b rest
      in
      let envelope = function
        | None -> true
        | Some (e : Envelope.scan) ->
            ordered 0
              (List.sort compare
                 (List.filter_map Fun.id
                    [ e.id_value; e.trace_value; e.timeout_value ]))
      in
      (match Frame.response_spans s with
      | None -> true
      | Some (_, id_span, ctx_span) ->
          ordered 0 (id_span :: Option.to_list ctx_span))
      && (match Frame.bin_response_spans s with
         | None -> true
         | Some (_, id_span, ctx_span) -> ordered 0 [ id_span; ctx_span ])
      && envelope (Envelope.json s)
      && envelope (Envelope.binary s))

(* ------------------------------------------------------------------ *)
(* Merge: the reconciliation property on synthetic three-shard payloads *)

let shard_stats ~accepted ~shed ~hits ~uptime =
  Wire.Obj
    [
      ( "requests",
        Wire.Obj [ ("accepted", Wire.Int accepted); ("shed", Wire.Int shed) ]
      );
      ( "cache",
        Wire.Obj
          [
            ("hits", Wire.Int hits);
            ("fill", Wire.Float (float_of_int hits /. 8.0));
          ] );
      ("uptime", Wire.String uptime);
    ]

let int_at path w =
  let leaf =
    List.fold_left (fun w k -> Option.bind w (Wire.member k)) (Some w) path
  in
  match leaf with
  | Some (Wire.Int n) -> n
  | _ -> Alcotest.fail ("no int at " ^ String.concat "." path)

let test_merge_sum_json_reconciles () =
  let shards =
    [
      shard_stats ~accepted:10 ~shed:1 ~hits:4 ~uptime:"3s";
      shard_stats ~accepted:25 ~shed:0 ~hits:8 ~uptime:"5s";
      shard_stats ~accepted:7 ~shed:2 ~hits:0 ~uptime:"4s";
    ]
  in
  let agg = Merge.sum_json shards in
  (* Every counter in the aggregate equals the sum of its per-shard
     values — computed independently here, not read back from Merge. *)
  check_int "accepted reconciles" (10 + 25 + 7)
    (int_at [ "requests"; "accepted" ] agg);
  check_int "shed reconciles" (1 + 0 + 2) (int_at [ "requests"; "shed" ] agg);
  check_int "hits reconciles" (4 + 8 + 0) (int_at [ "cache"; "hits" ] agg);
  check_bool "floats add" true
    (Option.bind (Wire.member "cache" agg) (Wire.member "fill")
    = Some (Wire.Float ((4.0 +. 8.0 +. 0.0) /. 8.0)));
  check_bool "non-numeric leaves keep the first shard's value" true
    (Wire.member "uptime" agg = Some (Wire.String "3s"))

let test_merge_sum_json_shapes () =
  (* Int survives only when every summand is an Int. *)
  let agg =
    Merge.sum_json [ Wire.Obj [ ("n", Wire.Int 1) ];
                     Wire.Obj [ ("n", Wire.Float 2.5) ] ]
  in
  check_bool "int + float = float" true
    (Wire.member "n" agg = Some (Wire.Float 3.5));
  (* Keys union in first-appearance order; a field one shard lacks still
     aggregates over the shards that have it. *)
  let agg =
    Merge.sum_json
      [
        Wire.Obj [ ("a", Wire.Int 1) ];
        Wire.Obj [ ("b", Wire.Int 10); ("a", Wire.Int 2) ];
      ]
  in
  check_string "key union, first-appearance order"
    {|{"a":3,"b":10}|} (Wire.print agg)

(* Synthetic Metrics.json documents, same shape Rvu_obs.Metrics.json
   emits (cumulative bucket counts; +Inf is implied by count). *)
let metrics_doc samples = Wire.Obj [ ("metrics", Wire.List samples) ]

let counter_sample ?(labels = []) name v =
  Wire.Obj
    [
      ("name", Wire.String name);
      ("kind", Wire.String "counter");
      ("labels", Wire.Obj (List.map (fun (k, v) -> (k, Wire.String v)) labels));
      ("value", Wire.Int v);
    ]

let hist_sample name ~buckets ~count ~sum =
  Wire.Obj
    [
      ("name", Wire.String name);
      ("kind", Wire.String "histogram");
      ("labels", Wire.Obj []);
      ( "buckets",
        Wire.List
          (List.map
             (fun (le, cum) ->
               Wire.Obj
                 [ ("le", Wire.Float le); ("cumulative", Wire.Int cum) ])
             buckets) );
      ("count", Wire.Int count);
      ("sum", Wire.Float sum);
    ]

let find_sample name merged =
  match Wire.member "metrics" merged with
  | Some (Wire.List samples) ->
      List.find
        (fun s -> Wire.member "name" s = Some (Wire.String name))
        samples
  | _ -> Alcotest.fail "merged document has no metrics list"

let bucket_alist s =
  match Wire.member "buckets" s with
  | Some (Wire.List bs) ->
      List.map
        (fun b ->
          match (Wire.member "le" b, Wire.member "cumulative" b) with
          | Some (Wire.Float le), Some (Wire.Int c) -> (le, c)
          | _ -> Alcotest.fail "malformed bucket")
        bs
  | _ -> Alcotest.fail "no buckets"

let test_merge_metrics_reconciles () =
  (* Three shards; the third reports a bucket grid the others lack, so
     the merge must re-cumulate into the union grid. *)
  let s1 =
    metrics_doc
      [
        counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 10;
        hist_sample "rvu_t_seconds"
          ~buckets:[ (0.1, 2); (0.5, 5) ]
          ~count:6 ~sum:1.5;
      ]
  in
  let s2 =
    metrics_doc
      [
        counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 20;
        counter_sample "rvu_req_total" ~labels:[ ("kind", "search") ] 4;
        hist_sample "rvu_t_seconds"
          ~buckets:[ (0.1, 1); (0.5, 4) ]
          ~count:4 ~sum:0.25;
      ]
  in
  let s3 =
    metrics_doc
      [
        counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 30;
        hist_sample "rvu_t_seconds"
          ~buckets:[ (0.25, 3); (0.5, 3) ]
          ~count:3 ~sum:0.25;
      ]
  in
  let merged =
    Metrics.to_json (Metrics.merge (List.map Metrics.of_json [ s1; s2; s3 ]))
  in
  (* Counters: keyed on (name, labels); same-label values sum, the
     label set only one shard reports survives alone. *)
  let counters =
    match Wire.member "metrics" merged with
    | Some (Wire.List samples) ->
        List.filter_map
          (fun s ->
            if Wire.member "name" s = Some (Wire.String "rvu_req_total") then
              Some
                ( Wire.print (Option.get (Wire.member "labels" s)),
                  Wire.member "value" s )
            else None)
          samples
    | _ -> Alcotest.fail "no metrics list"
  in
  check_int "one series per label set" 2 (List.length counters);
  check_bool "simulate counter reconciles (10+20+30)" true
    (List.assoc {|{"kind":"simulate"}|} counters = Some (Wire.Int 60));
  check_bool "search counter passes through" true
    (List.assoc {|{"kind":"search"}|} counters = Some (Wire.Int 4));
  (* Histogram: union grid {0.1, 0.25, 0.5}; the merged cumulative count
     at each bound must equal the sum of the shard step functions
     evaluated at that bound — that is what "bucket-merged histograms
     reconcile exactly" means. *)
  let h = find_sample "rvu_t_seconds" merged in
  let shard_cum_at le =
    (* evaluate each shard's cumulative step function at le *)
    let eval buckets =
      List.fold_left (fun acc (b, c) -> if b <= le then max acc c else acc)
        0 buckets
    in
    eval [ (0.1, 2); (0.5, 5) ]
    + eval [ (0.1, 1); (0.5, 4) ]
    + eval [ (0.25, 3); (0.5, 3) ]
  in
  let merged_buckets = bucket_alist h in
  check_int "union grid size" 3 (List.length merged_buckets);
  List.iter
    (fun (le, cum) ->
      check_int
        (Printf.sprintf "cumulative at le=%g reconciles" le)
        (shard_cum_at le) cum)
    merged_buckets;
  check_bool "grid ascending" true
    (List.sort compare merged_buckets = merged_buckets);
  check_int "count reconciles" (6 + 4 + 3)
    (match Wire.member "count" h with
    | Some (Wire.Int n) -> n
    | _ -> -1);
  check_bool "sum reconciles" true
    (Wire.member "sum" h = Some (Wire.Float (1.5 +. 0.25 +. 0.25)))

let test_merge_prometheus_render () =
  let merged =
    Metrics.merge @@ List.map Metrics.of_json
      [
        metrics_doc
          [
            counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 10;
            hist_sample "rvu_t_seconds"
              ~buckets:[ (0.1, 2); (0.5, 5) ]
              ~count:6 ~sum:1.5;
          ];
        metrics_doc
          [
            counter_sample "rvu_req_total" ~labels:[ ("kind", "simulate") ] 5;
            hist_sample "rvu_t_seconds"
              ~buckets:[ (0.1, 1); (0.5, 2) ]
              ~count:3 ~sum:0.5;
          ];
      ]
  in
  let text = Metrics.to_prometheus merged in
  let has line =
    List.mem line (String.split_on_char '\n' text)
  in
  check_bool "counter line" true
    (has {|rvu_req_total{kind="simulate"} 15|});
  check_bool "bucket line, merged count" true
    (has {|rvu_t_seconds_bucket{le="0.1"} 3|});
  check_bool "+Inf bucket equals count" true
    (has {|rvu_t_seconds_bucket{le="+Inf"} 9|});
  check_bool "sum line" true (has "rvu_t_seconds_sum 2.0");
  check_bool "count line" true (has "rvu_t_seconds_count 9");
  (* one TYPE header per name, exactly *)
  let type_lines =
    List.filter
      (String.starts_with ~prefix:"# TYPE rvu_t_seconds ")
      (String.split_on_char '\n' text)
  in
  check_int "one TYPE header per name" 1 (List.length type_lines)

(* Properties of the one metrics document, seeded so a failure replays.
   Kinds are fixed per name and labels come from a small pool, so the
   lists a property merges share identities. *)
let sample_list_gen =
  let open QCheck.Gen in
  let label_sets =
    [ []; [ ("k", "a") ]; [ ("k", "b") ]; [ ("k", "a"); ("q", "z") ] ]
  in
  let grid = [ 0.001; 0.01; 0.1; 0.5; 1.0; 2.5; 10.0 ] in
  let counter = map (fun v -> Metrics.Counter v) (int_bound (1 lsl 58)) in
  let gauge = map (fun v -> Metrics.Gauge v) (float_range (-1e6) 1e6) in
  let histogram =
    let* bounds =
      map (List.filter_map Fun.id)
        (flatten_l (List.map (fun le -> option ~ratio:0.5 (return le)) grid))
    in
    let* steps = flatten_l (List.map (fun _ -> int_bound 20) bounds) in
    let* overflow = int_bound 20 in
    let* sum = float_range 0.0 1e3 in
    let* exemplars =
      oneof
        [
          return [];
          (* one slot per bucket line, [+Inf] included *)
          flatten_l
            (List.init
               (List.length bounds + 1)
               (fun _ ->
                 option
                   (triple (float_range 0.0 20.0)
                      (string_size ~gen:(char_range 'a' 'f') (return 8))
                      (float_range 1e9 2e9))));
        ]
    in
    let cum = ref 0 in
    let buckets =
      List.map2
        (fun le d ->
          cum := !cum + d;
          (le, !cum))
        bounds steps
    in
    return
      (Metrics.Histogram
         { buckets; count = !cum + overflow; sum; exemplars })
  in
  let identity (name, value) labels =
    let* present = bool in
    if not present then return None
    else
      let* help = oneofl [ ""; "help text" ] in
      let* value = value in
      return (Some { Metrics.name; help; labels; value })
  in
  map (List.filter_map Fun.id)
    (flatten_l
       (List.concat_map
          (fun kind -> List.map (identity kind) label_sets)
          [
            ("m_total", counter); ("m_gauge", gauge); ("m_seconds", histogram);
          ]))

let no_exemplars (s : Metrics.sample) =
  match s.Metrics.value with
  | Metrics.Histogram h ->
      { s with Metrics.value = Metrics.Histogram { h with exemplars = [] } }
  | _ -> s

let print_samples l = Wire.print (Metrics.to_json l)

let prop_metrics_json_roundtrip =
  QCheck.Test.make ~count:300 ~name:"of_json inverts to_json, exemplars aside"
    (QCheck.make ~print:print_samples sample_list_gen)
    (fun l ->
      let printed = Wire.print (Metrics.to_json l) in
      Metrics.of_json (Result.get_ok (Wire.parse printed))
      = List.map no_exemplars l)

(* The cumulative count of one input's buckets at bound [le]: a step
   function, 0 below its first bound. *)
let cumulative_at buckets le =
  List.fold_left (fun acc (b, c) -> if b <= le then c else acc) 0 buckets

let prop_metrics_merge_reconciles =
  QCheck.Test.make ~count:300 ~name:"merge reconciles per (name, labels)"
    (QCheck.make
       ~print:(fun ls -> String.concat "\n" (List.map print_samples ls))
       QCheck.Gen.(list_size (int_range 1 4) sample_list_gen))
    (fun lists ->
      let merged = Metrics.merge lists in
      let id (s : Metrics.sample) = (s.Metrics.name, s.Metrics.labels) in
      let ids = List.sort_uniq compare (List.map id (List.concat lists)) in
      List.map id merged = ids
      && List.for_all
           (fun (m : Metrics.sample) ->
             let inputs =
               List.filter (fun s -> id s = id m) (List.concat lists)
             in
             let first = List.hd inputs in
             m.Metrics.help = first.Metrics.help
             &&
             match
               (m.Metrics.value, List.map (fun s -> s.Metrics.value) inputs)
             with
             | Metrics.Counter v, vs ->
                 v
                 = List.fold_left
                     (fun acc -> function
                       | Metrics.Counter x -> acc + x | _ -> acc)
                     0 vs
             | Metrics.Gauge v, Metrics.Gauge v0 :: vs ->
                 v
                 = List.fold_left
                     (fun acc -> function
                       | Metrics.Gauge x -> acc +. x | _ -> acc)
                     v0 vs
             | Metrics.Histogram h, vs ->
                 let hs =
                   List.filter_map
                     (function
                       | Metrics.Histogram { buckets; count; sum; _ } ->
                           Some (buckets, count, sum)
                       | _ -> None)
                     vs
                 in
                 let add f = List.fold_left (fun acc h' -> acc + f h') 0 hs in
                 let bounds =
                   List.sort_uniq compare
                     (List.concat_map (fun (b, _, _) -> List.map fst b) hs)
                 in
                 List.map fst h.buckets = bounds
                 && List.for_all
                      (fun (le, cum) ->
                        cum = add (fun (b, _, _) -> cumulative_at b le))
                      h.buckets
                 && h.count = add (fun (_, c, _) -> c)
                 && h.sum
                    = List.fold_left
                        (fun acc (_, _, s) -> acc +. s)
                        (let _, _, s = List.hd hs in s)
                        (List.tl hs)
                 && h.exemplars = []
             | _ -> false)
           merged)

(* Hostile shapes a shard's answer could carry: wrong kinds, non-finite
   numbers (a NaN bound among them), non-objects. *)
let hostile =
  Wire.
    [
      Null; Bool true; Int (-1); Int max_int; Float Float.nan;
      Float Float.infinity; String "histogram"; String "counter";
      String "gauge"; List []; Obj []; List [ Obj [] ];
    ]

let rec mutate v =
  let open QCheck.Gen in
  frequency
    [
      ( 8,
        match v with
        | Wire.Obj fields ->
            map
              (fun fs -> Wire.Obj (List.filter_map Fun.id fs))
              (flatten_l
                 (List.map
                    (fun (k, x) ->
                      frequency
                        [
                          (1, return None);
                          (6, map (fun x -> Some (k, x)) (mutate x));
                        ])
                    fields))
        | Wire.List items ->
            map (fun l -> Wire.List l) (flatten_l (List.map mutate items))
        | v -> return v );
      (1, oneofl hostile);
    ]

let rec printable = function
  | Wire.Float f when not (Float.is_finite f) -> Wire.String (Float.to_string f)
  | Wire.Obj fs -> Wire.Obj (List.map (fun (k, v) -> (k, printable v)) fs)
  | Wire.List l -> Wire.List (List.map printable l)
  | v -> v

let prop_metrics_of_json_total =
  QCheck.Test.make ~count:500
    ~name:"of_json never raises and keeps only renderable samples"
    (QCheck.make
       ~print:(fun d -> Wire.print (printable d))
       QCheck.Gen.(sample_list_gen >>= fun l -> mutate (Metrics.to_json l)))
    (fun doc ->
      let samples = Metrics.of_json doc in
      ignore (Wire.print (Metrics.to_json samples));
      ignore (Metrics.to_prometheus ~openmetrics:true samples);
      true)

(* ------------------------------------------------------------------ *)
(* Router over in-process TCP workers *)

let simulate_line ~id d =
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
  Wire.print (Proto.wire_of_request ~id:(Wire.Int id) request)

let worker_config =
  { Server.default_config with jobs = 1; queue_depth = 32; cache_entries = 64 }

(* One in-process worker: a real Server behind a real TCP socket, exactly
   what the router talks to in production. serve_tcp returns after its
   single connection (the router's) closes. *)
let spawn_worker ?(config = worker_config) port =
  let server = Server.create ~config () in
  let domain =
    Domain.spawn (fun () ->
        Server.serve_tcp server ~host:"127.0.0.1" ~port ~connections:1 ())
  in
  (server, domain)

let endpoint port = { Router.host = "127.0.0.1"; port; spawn = None }

(* A stand-in shard on [port]: it accepts one connection and answers each
   JSON line it can parse, [w], with [reply w] when that is [Some]. The
   domain returns once the router closes the connection. *)
let stand_in port reply =
  let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt sock Unix.SO_REUSEADDR true;
  Unix.bind sock (Unix.ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.listen sock 1;
  Domain.spawn (fun () ->
      let fd, _ = Unix.accept sock in
      let ic = Unix.in_channel_of_descr fd
      and oc = Unix.out_channel_of_descr fd in
      (try
         while true do
           Option.iter
             (fun line -> Printf.fprintf oc "%s\n%!" line)
             (Option.bind (Result.to_option (Wire.parse (input_line ic))) reply)
         done
       with End_of_file | Sys_error _ -> ());
      Unix.close fd;
      Unix.close sock)

(* A ready health body under the router's id [w], as a stand-in answers. *)
let ready w =
  Some
    (Printf.sprintf {|{"id":%s,"ctx":"shard","ok":{"status":"ready"}}|}
       (Wire.print (Option.value (Wire.member "id" w) ~default:Wire.Null)))

(* A stand-in that answers health probes and swallows everything else. *)
let probes_only w =
  if Wire.member "kind" w = Some (Wire.String "health") then ready w else None

let stop_workers workers =
  List.iter
    (fun (server, domain) ->
      Domain.join domain;
      Server.stop server)
    workers

let test_router_bit_identity_and_fanout () =
  let ports = [ 7541; 7542 ] in
  let workers = List.map spawn_worker ports in
  let config =
    {
      Router.default_config with
      probe_interval_ms = 100.;
      connect_timeout_ms = 5000.;
    }
  in
  let router = Router.create ~config ~endpoints:(List.map endpoint ports) () in
  let reference = Server.create ~config:worker_config () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_workers workers;
      Server.stop reference)
  @@ fun () ->
  check_bool "both shards admitted" true
    (Array.for_all (String.equal "ready") (Router.shard_statuses router));
  (* Bit-identity: the routed response must be byte-equal to what a
     direct server answers for the same line — cold, and again warm (the
     second pass is served from the owning shard's cache). *)
  let lines =
    List.init 6 (fun i -> simulate_line ~id:(i + 1) (1.0 +. (0.25 *. float_of_int i)))
  in
  for _pass = 1 to 2 do
    List.iter
      (fun line ->
        check_string "routed = direct, byte for byte"
          (Server.handle_sync reference line)
          (Router.handle_sync router line))
      lines
  done;
  (* Fan-out: stats aggregates over both shards with the breakdown kept. *)
  (match Wire.parse (Router.handle_sync router {|{"id":90,"kind":"stats"}|}) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w ->
      let ok = Option.get (Wire.member "ok" w) in
      check_bool "aggregate present" true (Wire.member "aggregate" ok <> None);
      check_bool "router section present" true (Wire.member "router" ok <> None);
      (match Wire.member "shards" ok with
      | Some (Wire.List shards) ->
          check_int "one breakdown entry per shard" 2 (List.length shards);
          List.iter
            (fun sh ->
              check_bool "shard carries its stats payload" true
                (Wire.member "stats" sh <> None))
            shards
      | _ -> Alcotest.fail "no shards breakdown");
      (* The aggregate request counter must cover every evaluation
         request routed above, summed over both shards. *)
      check_bool "aggregate ok-count covers the routed requests" true
        (int_at [ "aggregate"; "requests"; "ok" ] ok >= 6));
  (* Health fan-out keeps the single-server top-level shape. *)
  match Wire.parse (Router.handle_sync router {|{"id":91,"kind":"health"}|}) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w ->
      let ok = Option.get (Wire.member "ok" w) in
      check_bool "cluster ready" true
        (Wire.member "status" ok = Some (Wire.String "ready"));
      check_bool "queue depth sums the shards" true
        (int_at [ "queue"; "depth" ] ok = 2 * worker_config.queue_depth)

let test_router_routes_around_dead_endpoint () =
  let live_port = 7543 and dead_port = 7549 in
  let workers = [ spawn_worker live_port ] in
  let config =
    {
      Router.default_config with
      probe_interval_ms = 100.;
      restart_backoff_ms = 100.;
      connect_timeout_ms = 600.;
    }
  in
  let router =
    Router.create ~config
      ~endpoints:[ endpoint live_port; endpoint dead_port ]
      ()
  in
  let reference = Server.create ~config:worker_config () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_workers workers;
      Server.stop reference)
  @@ fun () ->
  let statuses = Router.shard_statuses router in
  check_string "live endpoint admitted" "ready" statuses.(0);
  check_string "dead endpoint held down" "down" statuses.(1);
  (* Every key the dead shard would own falls to the survivor: all
     requests still answer, still bit-identical to a direct server. *)
  List.iter
    (fun line ->
      check_string "answered by the survivor, byte for byte"
        (Server.handle_sync reference line)
        (Router.handle_sync router line))
    (List.init 5 (fun i -> simulate_line ~id:(i + 1) (2.0 +. (0.3 *. float_of_int i))));
  (* The fan-out breakdown reports the dead shard as down, without a
     payload, and the aggregate still reconciles over the live one. *)
  match Wire.parse (Router.handle_sync router {|{"id":92,"kind":"stats"}|}) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w -> (
      let ok = Option.get (Wire.member "ok" w) in
      match Wire.member "shards" ok with
      | Some (Wire.List [ s0; s1 ]) ->
          check_bool "live shard reports stats" true
            (Wire.member "stats" s0 <> None);
          check_bool "dead shard reports down" true
            (Wire.member "status" s1 = Some (Wire.String "down"));
          check_bool "dead shard has no payload" true
            (Wire.member "stats" s1 = None)
      | _ -> Alcotest.fail "expected a two-shard breakdown")

(* Routed binary traffic: a router whose shard connections are upgraded
   to frames must answer a binary client byte-identically to a direct
   binary server — cold (decoded, routed, spliced) and warm (spliced
   from the owning shard's frame cache). *)
let test_router_binary_bit_identity () =
  let module Wb = Rvu_service.Wire_bin in
  let ports = [ 7561; 7562 ] in
  let workers = List.map spawn_worker ports in
  let config =
    {
      Router.default_config with
      probe_interval_ms = 100.;
      connect_timeout_ms = 5000.;
      wire = Wb.Binary;
    }
  in
  let router = Router.create ~config ~endpoints:(List.map endpoint ports) () in
  let reference = Server.create ~config:worker_config () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      stop_workers workers;
      Server.stop reference)
  @@ fun () ->
  check_bool "both shards admitted over frames" true
    (Array.for_all (String.equal "ready") (Router.shard_statuses router));
  let payloads =
    List.init 6 (fun i ->
        Wb.encode
          (Result.get_ok
             (Wire.parse
                (simulate_line ~id:(i + 1) (1.0 +. (0.25 *. float_of_int i))))))
  in
  for _pass = 1 to 2 do
    List.iter
      (fun payload ->
        check_string "routed binary = direct binary, byte for byte"
          (Server.handle_payload_sync reference payload)
          (Router.handle_payload_sync router payload))
      payloads
  done

(* A shard reply the span scan cannot read (ctx ahead of id) is matched
   on its decoded id instead: the client still gets its own id and ctx
   back, in its own codec. The stand-in shard answers every line, probes
   included, with a ready health body. *)
let test_router_unscannable_reply () =
  let module Wb = Rvu_service.Wire_bin in
  let port = 7563 in
  let shard =
    stand_in port (fun w ->
        Some
          (Printf.sprintf {|{"ctx":"shard","id":%s,"ok":{"status":"ready"}}|}
             (Wire.print (Option.value (Wire.member "id" w) ~default:Wire.Null))))
  in
  let config =
    {
      Router.default_config with
      route_timeout_ms = 2000.;
      max_retries = 0;
      connect_timeout_ms = 5000.;
    }
  in
  let router = Router.create ~config ~endpoints:[ endpoint port ] () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Domain.join shard)
  @@ fun () ->
  let request = {|{"id":7,"kind":"feasibility"}|} in
  let answer = {|{"ctx":"req-7","id":7,"ok":{"status":"ready"}}|} in
  let encode line = Wb.encode (Result.get_ok (Wire.parse line)) in
  check_string "JSON client" answer (Router.handle_sync router request);
  check_string "binary client" (encode answer)
    (Router.handle_payload_sync router (encode request))

(* Every pairing of client and shard codecs the unit tests above leave
   out: a JSON client on binary shards and a binary client on JSON shards,
   cold then warm. Each answer is byte-identical to a direct server's in
   the client's codec. The mix is a simulate, a bound with a string id, a
   schedule, a model run, a search, an unknown kind and a feasibility
   request without an id, whose ctx is generated: the ctx sequence is
   reseeded before each answer. *)
let test_router_codec_matrix () =
  let docs =
    Proto.
      [
        Result.get_ok (Wire.parse (simulate_line ~id:1 1.0));
        wire_of_request ~id:(Wire.String "b-1")
          (Bound { attrs = Attributes.make ~tau:0.7 (); d = 8.0; r = 0.1 });
        wire_of_request ~id:(Wire.Int 3) (Schedule 3);
        wire_of_request ~id:(Wire.Int 4)
          (Model_run
             {
               model = Rvu_model.Cycle_speed.name;
               instance = Rvu_model.Cycle_speed.(instance default);
             });
        wire_of_request ~id:(Wire.Int 5)
          (Search { d = 4.0; bearing = 0.9; r = 0.5; horizon = 1e7 });
        Wire.Obj [ ("id", Wire.Int 6); ("kind", Wire.String "no-such-kind") ];
        wire_of_request (Feasibility (Attributes.make ~v:2.0 ()));
      ]
  in
  let reference = Server.create ~config:worker_config () in
  Fun.protect ~finally:(fun () -> Server.stop reference) @@ fun () ->
  List.iter
    (fun (shards, client, ports) ->
      let workers = List.map spawn_worker ports in
      let config =
        {
          Router.default_config with
          probe_interval_ms = 100.;
          connect_timeout_ms = 5000.;
          wire = shards;
        }
      in
      let router =
        Router.create ~config ~endpoints:(List.map endpoint ports) ()
      in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          stop_workers workers)
      @@ fun () ->
      let direct, routed =
        match client with
        | Wb.Json -> (Server.handle_sync, Router.handle_sync)
        | Wb.Binary -> (Server.handle_payload_sync, Router.handle_payload_sync)
      in
      for pass = 1 to 2 do
        List.iter
          (fun doc ->
            let record = Conn.encode client doc in
            Rvu_obs.Ctx.set_seed 0;
            let expected = direct reference record in
            Rvu_obs.Ctx.set_seed 0;
            check_string
              (Printf.sprintf "%s client on %s shards, pass %d: %s"
                 (Wb.mode_string client) (Wb.mode_string shards) pass
                 (Wire.print doc))
              expected (routed router record))
          docs
      done)
    [
      (Wb.Binary, Wb.Json, [ 7565; 7566 ]); (Wb.Json, Wb.Binary, [ 7567; 7568 ]);
    ]

(* A retry after a route timeout gets the whole route timeout again, not
   what is left of the first attempt's. The stand-in shard answers health
   probes and swallows everything else, so with one shard the request
   times out on its dispatch and on both retries (it is the only ready
   shard, so each retry goes back to it) before it is shed: no sooner
   than three timeouts after it was sent. *)
let test_router_retry_gets_route_timeout () =
  let port = 7564 in
  let shard = stand_in port probes_only in
  let config =
    {
      Router.default_config with
      route_timeout_ms = 300.;
      max_retries = 2;
      connect_timeout_ms = 5000.;
    }
  in
  let router = Router.create ~config ~endpoints:[ endpoint port ] () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      Domain.join shard)
  @@ fun () ->
  let t0 = Rvu_obs.Clock.now_s () in
  let answer =
    Router.handle_sync router {|{"id":5,"kind":"schedule","rounds":2}|}
  in
  let waited = Rvu_obs.Clock.now_s () -. t0 in
  check_string "shed once the retries run out"
    {|{"id":5,"ctx":"req-5","error":{"code":"overloaded","message":"shard retries exhausted"}}|}
    answer;
  check_bool
    (Printf.sprintf "three route timeouts before the shed (%.2f s)" waited)
    true (waited >= 0.85);
  match Wire.parse (Router.handle_sync router {|{"id":6,"kind":"stats"}|}) with
  | Error e -> Alcotest.fail (Wire.error_to_string e)
  | Ok w ->
      let ok = Option.get (Wire.member "ok" w) in
      check_int "retried twice" 2
        (int_at [ "router"; "requests"; "retried" ] ok);
      check_int "shed once" 1 (int_at [ "router"; "requests"; "shed" ] ok)

(* A retry leaves the shard that timed it out. Two stand-in shards: the
   request's home (its first choice on the ring) answers probes and
   swallows everything else, the other answers every line. The request
   times out once on its home and is answered by the other shard, after
   one route timeout and one retry. *)
let test_router_retry_leaves_timed_out_shard () =
  let ports = [ 7571; 7572 ] in
  let request = {|{"id":5,"kind":"schedule","rounds":2}|} in
  let home = (Ring.order ~shards:2 ~parts:(Frame.routing_parts request)).(0) in
  let shards =
    List.mapi (fun i port -> stand_in port (if i = home then probes_only else ready)) ports
  in
  let config =
    {
      Router.default_config with
      route_timeout_ms = 300.;
      max_retries = 2;
      connect_timeout_ms = 5000.;
    }
  in
  let router = Router.create ~config ~endpoints:(List.map endpoint ports) () in
  Fun.protect
    ~finally:(fun () ->
      Router.stop router;
      List.iter Domain.join shards)
  @@ fun () ->
  (* The router's counters are the process's, so read their growth. *)
  let counters () =
    let ok =
      Option.get
        (Wire.member "ok"
           (Result.get_ok (Wire.parse (Router.handle_sync router {|{"id":6,"kind":"stats"}|}))))
    in
    ( int_at [ "router"; "requests"; "retried" ] ok,
      int_at [ "router"; "requests"; "shed" ] ok )
  in
  let retried, shed = counters () in
  let t0 = Rvu_obs.Clock.now_s () in
  let answer = Router.handle_sync router request in
  let waited = Rvu_obs.Clock.now_s () -. t0 in
  check_string "answered by the other shard"
    {|{"id":5,"ctx":"req-5","ok":{"status":"ready"}}|} answer;
  check_bool
    (Printf.sprintf "after one route timeout (%.2f s)" waited)
    true
    (waited >= 0.25 && waited < 0.55);
  let retried', shed' = counters () in
  check_int "retried once" 1 (retried' - retried);
  check_int "shed none" 0 (shed' - shed)

(* With tracing on, a forward carries the router's id and a trace member:
   72 bytes and the id's digits more than a JSON record, 84 more than a
   binary one. The router's limit, max_request_bytes - envelope_bytes,
   leaves room for both. A record at the limit is answered by the shard.
   One past it, and one just under the shards' own limit (which a shard
   would refuse under a null id the router cannot match), are refused at
   once, naming the limit. So is a JSON record that fits the limit but
   transcodes past it onto binary shards: its refusal names the frame
   the router would forward, and keeps the record's id. *)
let test_router_size_limit_traced () =
  let module Wb = Rvu_service.Wire_bin in
  let max_request_bytes = 256 in
  let limit = max_request_bytes - Router.envelope_bytes in
  let path = Filename.temp_file "rvu-test-trace" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Rvu_obs.Trace.close ();
      try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Rvu_obs.Trace.enable ~path ();
  (* A feasibility request padded with an extra member. *)
  let doc pad =
    Wire.Obj
      [
        ("id", Wire.Int 1);
        ("kind", Wire.String "feasibility");
        ("v", Wire.Float 2.0);
        ("pad", pad);
      ]
  in
  (* One of [n] bytes in [wire]. *)
  let record wire n =
    let base = String.length (Conn.encode wire (doc (Wire.String ""))) in
    Conn.encode wire (doc (Wire.String (String.make (n - base) 'x')))
  in
  List.iter
    (fun (shards, client, port) ->
      let worker =
        spawn_worker ~config:{ worker_config with max_request_bytes } port
      in
      let router =
        Router.create
          ~config:
            {
              Router.default_config with
              max_request_bytes;
              route_timeout_ms = 300.;
              connect_timeout_ms = 5000.;
              wire = shards;
            }
          ~endpoints:[ endpoint port ] ()
      in
      Fun.protect
        ~finally:(fun () ->
          Router.stop router;
          stop_workers [ worker ])
      @@ fun () ->
      let label what =
        Printf.sprintf "%s client on %s shards: %s" (Wb.mode_string client)
          (Wb.mode_string shards) what
      in
      let call record =
        let t0 = Rvu_obs.Clock.now_s () in
        let answer =
          match client with
          | Wb.Json -> Router.handle_sync router record
          | Wb.Binary -> Router.handle_payload_sync router record
        in
        (Result.get_ok (Conn.decode client answer), Rvu_obs.Clock.now_s () -. t0)
      in
      let refused what ?(id = Wire.Null) record mode bytes =
        let answer, waited = call record in
        check_bool (label (what ^ " refused at once")) true (waited < 0.25);
        check_string
          (label (what ^ " refusal"))
          (Wire.print
             (Wire.Obj
                [
                  ("id", id);
                  ( "error",
                    Wire.Obj
                      [
                        ("code", Wire.String "invalid_request");
                        ( "message",
                          Wire.String (Conn.too_large mode bytes ~limit) );
                      ] );
                ]))
          (Wire.print
             (Wire.Obj
                (List.filter (fun (k, _) -> k <> "ctx")
                   (match answer with Wire.Obj m -> m | _ -> []))))
      in
      if shards = client then begin
        let answer, _ = call (record client limit) in
        check_bool (label "a record at the limit answered ok") true
          (Wire.member "ok" answer <> None);
        List.iter
          (fun n -> refused (Printf.sprintf "%d bytes" n) (record client n) client n)
          [ max_request_bytes - 64; limit + 1 ]
      end
      else begin
        (* Zeros: 2 bytes each in a JSON list, 9 as binary. *)
        let zeros = Wire.List (List.init (limit / 3) (fun _ -> Wire.Int 0)) in
        let r = Conn.encode client (doc zeros) in
        check_bool (label "the record fits the limit") true (String.length r <= limit);
        let forwarded =
          String.length (Conn.encode shards (Result.get_ok (Conn.decode client r)))
        in
        check_bool (label "the transcode outgrows the limit") true (forwarded > limit);
        refused "a transcode past the limit" ~id:(Wire.Int 1) r shards forwarded
      end)
    [
      (Wb.Json, Wb.Json, 7573); (Wb.Binary, Wb.Binary, 7574); (Wb.Binary, Wb.Json, 7575);
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "rvu_cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "pinned scores, picks and orders" `Quick
            test_ring_pinned;
          Alcotest.test_case "balanced" `Quick test_ring_balance;
          Alcotest.test_case "minimal disruption" `Quick
            test_ring_minimal_disruption;
        ] );
      ( "frame",
        [
          Alcotest.test_case "routing key masks the envelope" `Quick
            test_frame_routing_parts;
          Alcotest.test_case "forwarding prepends the router id" `Quick
            test_frame_forward_parts;
          Alcotest.test_case "response splice" `Quick
            test_frame_response_splice;
          Alcotest.test_case "response splice without ctx" `Quick
            test_frame_response_without_ctx;
          Alcotest.test_case "salvaged null id falls back" `Quick
            test_frame_salvaged_null_id_falls_back;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0x25; 0x5b1c |]))
            [ prop_splice_equals_direct; prop_scans_total ] );
      ( "merge",
        [
          Alcotest.test_case "summed counters reconcile" `Quick
            test_merge_sum_json_reconciles;
          Alcotest.test_case "numeric shapes and key union" `Quick
            test_merge_sum_json_shapes;
          Alcotest.test_case "bucket-merged histograms reconcile" `Quick
            test_merge_metrics_reconciles;
          Alcotest.test_case "prometheus render" `Quick
            test_merge_prometheus_render;
        ]
        @ List.map
            (QCheck_alcotest.to_alcotest
               ~rand:(Random.State.make [| 0x21; 0x3e7c |]))
            [
              prop_metrics_json_roundtrip;
              prop_metrics_merge_reconciles;
              prop_metrics_of_json_total;
            ] );
      ( "router",
        [
          Alcotest.test_case "bit identity and fan-out" `Quick
            test_router_bit_identity_and_fanout;
          Alcotest.test_case "routes around a dead endpoint" `Quick
            test_router_routes_around_dead_endpoint;
          Alcotest.test_case "routed binary is byte-identical" `Quick
            test_router_binary_bit_identity;
          Alcotest.test_case "unscannable shard reply falls back" `Quick
            test_router_unscannable_reply;
          Alcotest.test_case "mixed client and shard codecs" `Quick
            test_router_codec_matrix;
          Alcotest.test_case "a retry gets the whole route timeout" `Quick
            test_router_retry_gets_route_timeout;
          Alcotest.test_case "a retry leaves the shard that timed it out" `Quick
            test_router_retry_leaves_timed_out_shard;
          Alcotest.test_case "a traced record fits the shards' limit" `Quick
            test_router_size_limit_traced;
        ] );
    ]
