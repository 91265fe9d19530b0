(* Tests for Rvu_obs: the metrics registry and the tracing sink.

   The registry's contracts: identity (same (name, labels) -> same metric,
   kind mismatch raises), exactness under concurrency (counters are atomic:
   N domains x k increments is exactly N*k), quantile accuracy (bucketed
   estimates within one bucket width of the true percentile; retained-
   sample quantiles exactly Stats.percentile), and faithful exposition in
   both Prometheus text and JSON. The tracer's contract: the file it
   writes is one valid JSON array of Chrome trace events, ring-bounded
   with an honest dropped count.

   Metric names here are namespaced "test_obs_*" — the registry is
   process-global and these tests share the process with every other
   suite. *)

module Metrics = Rvu_obs.Metrics
module Trace = Rvu_obs.Trace
module Wire = Rvu_obs.Wire

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Registry identity *)

let test_registration_idempotent () =
  let a = Metrics.counter "test_obs_idem_total" in
  let b = Metrics.counter "test_obs_idem_total" in
  Metrics.incr a;
  Metrics.incr b;
  check_int "both handles hit one cell" 2 (Metrics.counter_value a);
  (* Labels are part of the identity, order is not. *)
  let l1 = Metrics.counter ~labels:[ ("a", "1"); ("b", "2") ] "test_obs_lbl" in
  let l2 = Metrics.counter ~labels:[ ("b", "2"); ("a", "1") ] "test_obs_lbl" in
  let l3 = Metrics.counter ~labels:[ ("a", "1"); ("b", "3") ] "test_obs_lbl" in
  Metrics.incr l1;
  check_int "label order irrelevant" 1 (Metrics.counter_value l2);
  check_int "different labels, different cell" 0 (Metrics.counter_value l3)

let test_kind_mismatch_raises () =
  ignore (Metrics.counter "test_obs_kind_total" : Metrics.counter);
  check_bool "gauge over counter raises" true
    (match Metrics.gauge "test_obs_kind_total" with
    | _ -> false
    | exception Invalid_argument _ -> true);
  check_bool "histogram over counter raises" true
    (match Metrics.histogram "test_obs_kind_total" with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Concurrency *)

let test_concurrent_counter_exact () =
  let c = Metrics.counter "test_obs_hammer_total" in
  let domains = 4 and per_domain = 50_000 in
  let workers =
    List.init domains (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to per_domain do
              Metrics.incr c
            done))
  in
  List.iter Domain.join workers;
  check_int "no lost increments" (domains * per_domain)
    (Metrics.counter_value c)

let test_concurrent_histogram_count () =
  let h = Metrics.private_histogram () in
  let domains = 4 and per_domain = 10_000 in
  let workers =
    List.init domains (fun d ->
        Domain.spawn (fun () ->
            for i = 1 to per_domain do
              Metrics.observe h (float_of_int ((d * per_domain) + i) *. 1e-6)
            done))
  in
  List.iter Domain.join workers;
  check_int "no lost observations" (domains * per_domain)
    (Metrics.histogram_count h)

(* ------------------------------------------------------------------ *)
(* Quantiles *)

(* The bucketed estimate and the true nearest-rank sample must land in the
   same bucket, so they differ by less than that bucket's width. *)
let prop_bucketed_quantile_error_bounded =
  let bounds = Metrics.default_buckets in
  let last = bounds.(Array.length bounds - 1) in
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 200) (float_bound_exclusive last))
        (float_bound_inclusive 1.0))
  in
  QCheck.Test.make ~count:300
    ~name:"bucketed quantile within one bucket width of exact"
    (QCheck.make gen ~print:(fun (xs, q) ->
         Printf.sprintf "q=%g over %d samples" q (List.length xs)))
    (fun (samples, q) ->
      QCheck.assume (samples <> []);
      let samples = List.map Float.abs samples in
      let h = Metrics.private_histogram () in
      List.iter (Metrics.observe h) samples;
      let est = Metrics.quantile h q in
      let n = List.length samples in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
      let exact = List.nth (List.sort Float.compare samples) (rank - 1) in
      (* Width of the bucket holding [exact]. *)
      let i = ref 0 in
      while !i < Array.length bounds && exact > bounds.(!i) do
        incr i
      done;
      let hi = bounds.(!i) in
      let lo = if !i = 0 then Float.min 0.0 hi else bounds.(!i - 1) in
      if Float.abs (est -. exact) <= hi -. lo then true
      else
        QCheck.Test.fail_reportf
          "estimate %.9g vs exact %.9g exceeds bucket width %.9g" est exact
          (hi -. lo))

let test_quantile_edge_cases () =
  let h = Metrics.private_histogram () in
  check_bool "empty histogram -> nan" true (Float.is_nan (Metrics.quantile h 0.5));
  check_bool "q out of range raises" true
    (match Metrics.quantile h 1.5 with
    | _ -> false
    | exception Invalid_argument _ -> true);
  (* Overflow samples clamp to the last finite bound. *)
  let bounds = Metrics.default_buckets in
  let last = bounds.(Array.length bounds - 1) in
  Metrics.observe h (10.0 *. last);
  check_bool "overflow clamps to last bound" true
    (Metrics.quantile h 1.0 = last)

(* ------------------------------------------------------------------ *)
(* Kill switch *)

let test_kill_switch () =
  let c = Metrics.counter "test_obs_switch_total" in
  let h =
    Metrics.histogram ~buckets:[| 1.0; 2.0 |] "test_obs_switch_seconds"
  in
  let p = Metrics.private_histogram () in
  Metrics.set_enabled false;
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.incr c;
      Metrics.observe h 1.5;
      Metrics.observe p 1.5;
      check_int "counter silenced" 0 (Metrics.counter_value c);
      check_int "registry histogram silenced" 0 (Metrics.histogram_count h);
      check_int "private histogram keeps recording" 1
        (Metrics.histogram_count p));
  Metrics.incr c;
  check_int "recording resumes" 1 (Metrics.counter_value c)

(* ------------------------------------------------------------------ *)
(* Exposition *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_prometheus_exposition () =
  let c =
    Metrics.counter ~help:"An exposition test counter"
      ~labels:[ ("kind", "demo") ] "test_obs_expo_total"
  in
  Metrics.incr ~by:3 c;
  let h = Metrics.histogram ~buckets:[| 0.5; 1.0 |] "test_obs_expo_seconds" in
  Metrics.observe h 0.25;
  Metrics.observe h 0.75;
  Metrics.observe h 99.0;
  let text = Metrics.expose () in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "exposition contains %S" needle) true
        (contains ~needle text))
    [
      "# HELP test_obs_expo_total An exposition test counter";
      "# TYPE test_obs_expo_total counter";
      "test_obs_expo_total{kind=\"demo\"} 3";
      "# TYPE test_obs_expo_seconds histogram";
      "test_obs_expo_seconds_bucket{le=\"0.5\"} 1";
      "test_obs_expo_seconds_bucket{le=\"1.0\"} 2";
      "test_obs_expo_seconds_bucket{le=\"+Inf\"} 3";
      "test_obs_expo_seconds_sum 100.0";
      "test_obs_expo_seconds_count 3";
    ]

let test_json_snapshot () =
  let c = Metrics.counter "test_obs_json_total" in
  Metrics.incr ~by:7 c;
  (* The document must survive its own printer: parse (print (json ())). *)
  let doc = Result.get_ok (Wire.parse (Wire.print (Metrics.json ()))) in
  let metrics =
    match Wire.member "metrics" doc with
    | Some (Wire.List l) -> l
    | _ -> Alcotest.fail "json (): no metrics list"
  in
  let entry =
    List.find
      (fun m -> Wire.member "name" m = Some (Wire.String "test_obs_json_total"))
      metrics
  in
  check_bool "kind" true (Wire.member "kind" entry = Some (Wire.String "counter"));
  check_bool "value" true (Wire.member "value" entry = Some (Wire.Int 7));
  (* Snapshot agrees with the JSON view. *)
  let s =
    List.find
      (fun (s : Metrics.sample) -> s.Metrics.name = "test_obs_json_total")
      (Metrics.snapshot ())
  in
  check_bool "snapshot value" true (s.Metrics.value = Metrics.Counter 7)

(* Exposition pinned byte-for-byte: [expose] builds its lines with
   [Printf.bprintf] into one buffer; this test is the contract that the
   buffered writer emits exactly the same text as the string-concatenation
   form it replaced. Labels print sorted by key (registration order is
   irrelevant), floats through the shared Wire printer. *)
let test_exposition_exact_lines () =
  let c =
    Metrics.counter ~help:"Buffer exposition pin"
      ~labels:[ ("b", "y"); ("a", "x") ]
      "test_obs_bprint_total"
  in
  Metrics.incr ~by:2 c;
  let g = Metrics.gauge "test_obs_bprint_gauge" in
  Metrics.gauge_set g 1.5;
  let h =
    Metrics.histogram ~buckets:[| 0.5 |]
      ~labels:[ ("q", "z") ]
      "test_obs_bprint_seconds"
  in
  Metrics.observe h 0.25;
  Metrics.observe h 2.5;
  let ours =
    List.filter
      (contains ~needle:"test_obs_bprint")
      (String.split_on_char '\n' (Metrics.expose ()))
  in
  Alcotest.(check (list string))
    "exact exposition lines"
    [
      "# TYPE test_obs_bprint_gauge gauge";
      "test_obs_bprint_gauge 1.5";
      "# TYPE test_obs_bprint_seconds histogram";
      "test_obs_bprint_seconds_bucket{q=\"z\",le=\"0.5\"} 1";
      "test_obs_bprint_seconds_bucket{q=\"z\",le=\"+Inf\"} 2";
      "test_obs_bprint_seconds_sum{q=\"z\"} 2.75";
      "test_obs_bprint_seconds_count{q=\"z\"} 2";
      "# HELP test_obs_bprint_total Buffer exposition pin";
      "# TYPE test_obs_bprint_total counter";
      "test_obs_bprint_total{a=\"x\",b=\"y\"} 2";
    ]
    ours

(* ------------------------------------------------------------------ *)
(* Structured logging *)

module Log = Rvu_obs.Log
module Ctx = Rvu_obs.Ctx

(* A request context as the server installs it. *)
let ctx ?span cid = { Ctx.cid; span }

let parse_line line =
  match Wire.parse line with
  | Ok (Wire.Obj fields) -> fields
  | Ok _ -> Alcotest.failf "log line is not an object: %s" line
  | Error e ->
      Alcotest.failf "log line unparseable: %s (%s)" line
        (Wire.error_to_string e)

let field name fields = List.assoc_opt name fields

let test_log_level_gate () =
  (* Unconfigured: every level reads as disabled, calls are no-ops. *)
  check_bool "debug disabled" false (Log.enabled Log.Debug);
  check_bool "error disabled" false (Log.enabled Log.Error);
  Log.info "dropped on the floor";
  Log.configure ~level:Log.Warn (Log.Ring 8);
  Fun.protect ~finally:Log.close (fun () ->
      check_bool "debug below gate" false (Log.enabled Log.Debug);
      check_bool "info below gate" false (Log.enabled Log.Info);
      check_bool "warn at gate" true (Log.enabled Log.Warn);
      check_bool "error above gate" true (Log.enabled Log.Error);
      check_bool "double configure raises" true
        (match Log.configure (Log.Ring 4) with
        | _ -> false
        | exception Invalid_argument _ -> true);
      Log.debug "no";
      Log.info "no";
      Log.warn "yes";
      check_int "only the warn reached the sink" 1
        (List.length (Log.ring_contents ()));
      Log.set_level Log.Debug;
      check_bool "set_level opens the gate" true (Log.enabled Log.Debug);
      Log.debug "now yes";
      check_int "debug lands after set_level" 2
        (List.length (Log.ring_contents ())));
  check_bool "closed -> disabled again" false (Log.enabled Log.Error);
  check_bool "non-positive ring capacity raises" true
    (match Log.configure (Log.Ring 0) with
    | _ -> false
    | exception Invalid_argument _ -> true)

let test_log_ndjson_round_trip () =
  Log.configure ~level:Log.Debug (Log.Ring 16);
  Fun.protect ~finally:Log.close (fun () ->
      Ctx.with_ctx (ctx "req-rt") (fun () ->
          (* Unsorted caller fields plus attempts to spoof reserved keys. *)
          Log.info
            ~fields:
              [
                ("zeta", Wire.Int 3);
                ("msg", Wire.String "spoof");
                ("alpha", Wire.String "a");
                ("ts", Wire.Int 0);
              ]
            "round trip");
      match Log.ring_contents () with
      | [ line ] ->
          let fields = parse_line line in
          Alcotest.(check (list string))
            "field order: ts level msg ctx then sorted callers"
            [ "ts"; "level"; "msg"; "ctx"; "alpha"; "zeta" ]
            (List.map fst fields);
          check_bool "level" true
            (field "level" fields = Some (Wire.String "info"));
          check_bool "msg survives the spoof" true
            (field "msg" fields = Some (Wire.String "round trip"));
          check_bool "ctx stamped" true
            (field "ctx" fields = Some (Wire.String "req-rt"));
          check_bool "ts is a float" true
            (match field "ts" fields with
            | Some (Wire.Float _) -> true
            | _ -> false);
          (* The codec round-trips its own log lines bit-exactly. *)
          check_string "print (parse line) = line" line
            (Wire.print (Result.get_ok (Wire.parse line)))
      | l -> Alcotest.failf "expected 1 line, got %d" (List.length l))

let test_log_multi_domain_interleaving () =
  let domains = 4 and per_domain = 500 in
  Log.configure ~level:Log.Info (Log.Ring (domains * per_domain));
  Fun.protect ~finally:Log.close (fun () ->
      let before = Log.emitted_records () in
      let workers =
        List.init domains (fun d ->
            Domain.spawn (fun () ->
                Ctx.with_ctx
                  (ctx (Printf.sprintf "dom-%d" d))
                  (fun () ->
                    for i = 1 to per_domain do
                      Log.info ~fields:[ ("i", Wire.Int i) ] "interleaved"
                    done)))
      in
      List.iter Domain.join workers;
      check_int "every record emitted exactly once" (domains * per_domain)
        (Log.emitted_records () - before);
      let lines = Log.ring_contents () in
      check_int "ring holds them all" (domains * per_domain)
        (List.length lines);
      (* No torn lines: every line parses, and per-domain counts are
         exact — the sink mutex never interleaved two records. *)
      let counts = Hashtbl.create 4 in
      List.iter
        (fun line ->
          match field "ctx" (parse_line line) with
          | Some (Wire.String c) ->
              Hashtbl.replace counts c
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts c))
          | _ -> Alcotest.failf "line without ctx: %s" line)
        lines;
      for d = 0 to domains - 1 do
        check_int
          (Printf.sprintf "dom-%d count" d)
          per_domain
          (Option.value ~default:0
             (Hashtbl.find_opt counts (Printf.sprintf "dom-%d" d)))
      done)

let test_log_flight_recorder_dump () =
  Log.configure ~level:Log.Warn ~flight_recorder:8 (Log.Ring 64);
  Fun.protect ~finally:Log.close (fun () ->
      check_bool "recorder forces the gate open" true (Log.enabled Log.Debug);
      for i = 1 to 20 do
        Log.debug ~fields:[ ("i", Wire.Int i) ] "prelude"
      done;
      check_int "below-level records not sunk" 0
        (List.length (Log.ring_contents ()));
      Log.error "boom";
      let lines = Log.ring_contents () in
      (* Direct error write, then the dump: marker + the last 8 records by
         sequence — prelude 14..20 and the error itself (ringed before it
         was written). *)
      check_int "error + marker + 8 dumped" 10 (List.length lines);
      let nth n = parse_line (List.nth lines n) in
      check_bool "first line is the error" true
        (field "msg" (nth 0) = Some (Wire.String "boom"));
      let marker = nth 1 in
      check_bool "marker msg" true
        (field "msg" marker = Some (Wire.String "flight-recorder dump"));
      check_bool "marker reason" true
        (field "reason" marker = Some (Wire.String "error record"));
      check_bool "marker count" true
        (field "records" marker = Some (Wire.Int 8));
      let dumped = List.filteri (fun i _ -> i >= 2) lines in
      let is =
        List.filter_map
          (fun l ->
            match field "i" (parse_line l) with
            | Some (Wire.Int i) -> Some i
            | _ -> None)
          dumped
      in
      Alcotest.(check (list int))
        "last prelude records, in sequence order"
        [ 14; 15; 16; 17; 18; 19; 20 ]
        is;
      check_bool "dump ends with the error" true
        (field "msg" (nth 9) = Some (Wire.String "boom"));
      (* The dump drained the ring: a second error dumps only itself. *)
      Log.error "boom2";
      let lines2 = Log.ring_contents () in
      check_int "second dump holds only the new error" 13
        (List.length lines2);
      check_bool "second marker count" true
        (field "records" (parse_line (List.nth lines2 11))
        = Some (Wire.Int 1));
      (* And a drained ring makes a forced dump a no-op. *)
      Log.flight_dump ~reason:"manual" ();
      check_int "manual dump of an empty ring adds nothing" 13
        (List.length (Log.ring_contents ())))

(* ------------------------------------------------------------------ *)
(* Tracing *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_trace path =
  match Wire.parse (read_file path) with
  | Ok (Wire.List events) -> events
  | Ok _ -> Alcotest.fail "trace file is not a JSON array"
  | Error e -> Alcotest.failf "trace file: %s" (Wire.error_to_string e)

let count_ph ph events =
  List.length
    (List.filter (fun ev -> Wire.member "ph" ev = Some (Wire.String ph)) events)

(* A one-microsecond span that begins now. *)
let span name = Trace.complete ~ts_us:(Rvu_obs.Clock.now_us ()) ~dur_us:1.0 name

let test_trace_file_well_formed () =
  let path = Filename.temp_file "rvu_test" ".trace.json" in
  check_bool "disabled by default" false (Trace.enabled ());
  (* Disabled sites are free to call. *)
  span "ignored";
  Trace.enable ~path ();
  check_bool "enabled" true (Trace.enabled ());
  check_bool "double enable raises" true
    (match Trace.enable ~path () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  span "first";
  span "second";
  let d = Domain.spawn (fun () -> span "other-domain") in
  Domain.join d;
  Trace.close ();
  Trace.close () (* idempotent *);
  check_bool "disabled after close" false (Trace.enabled ());
  let events = parse_trace path in
  check_int "three complete spans" 3 (count_ph "X" events);
  check_int "one metadata event" 1 (count_ph "i" events);
  check_int "nothing else" 4 (List.length events);
  (* Spans carry distinct tids per domain; Chrome nests by tid. *)
  let tid_of name =
    List.find_map
      (fun ev ->
        if Wire.member "name" ev = Some (Wire.String name) then
          Wire.member "tid" ev
        else None)
      events
  in
  check_bool "domains get distinct tids" true
    (tid_of "first" <> tid_of "other-domain");
  Sys.remove path

let test_trace_ring_keeps_last () =
  let path = Filename.temp_file "rvu_test" ".trace.json" in
  Trace.enable ~capacity:4 ~path ();
  for i = 1 to 10 do
    span (Printf.sprintf "ev%d" i)
  done;
  Trace.close ();
  let events = parse_trace path in
  (* Metadata event + the last 4 of 10 spans, oldest first. *)
  check_int "capacity + metadata retained" 5 (List.length events);
  let names =
    List.filter_map
      (fun ev ->
        match (Wire.member "name" ev, Wire.member "cat" ev) with
        | Some (Wire.String n), Some _ -> Some n
        | _ -> None)
      events
  in
  check_bool "last events survive, in order" true
    (names = [ "ev7"; "ev8"; "ev9"; "ev10" ]);
  let meta = List.hd events in
  check_string "metadata event" "rvu.trace"
    (match Wire.member "name" meta with
    | Some (Wire.String s) -> s
    | _ -> "?");
  let dropped =
    match Wire.member "args" meta with
    | Some args -> Wire.member "dropped_oldest" args
    | None -> None
  in
  check_bool "dropped count honest" true (dropped = Some (Wire.Int 6));
  Sys.remove path

let test_trace_unwritable_path () =
  check_bool "unwritable path raises Sys_error at enable" true
    (match Trace.enable ~path:"/nonexistent-dir/x.trace.json" () with
    | _ -> false
    | exception Sys_error _ -> true);
  check_bool "failed enable leaves tracing off" false (Trace.enabled ())

(* ------------------------------------------------------------------ *)
(* Span context: the W3C-shaped identity the cluster propagates *)

let all_hex s = String.for_all (fun c -> (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) s

let test_span_context_roundtrip () =
  let root = Ctx.new_root () in
  check_int "trace id is 32 chars" 32 (String.length root.Ctx.trace_id);
  check_int "span id is 16 chars" 16 (String.length root.Ctx.span_id);
  check_bool "ids are lowercase hex" true
    (all_hex root.Ctx.trace_id && all_hex root.Ctx.span_id);
  check_bool "root has no parent" true (root.Ctx.parent_id = None);
  let tp = Ctx.to_traceparent root in
  check_int "traceparent is 55 bytes" 55 (String.length tp);
  (match Ctx.of_traceparent tp with
  | Some sc ->
      check_string "trace id round-trips" root.Ctx.trace_id sc.Ctx.trace_id;
      check_string "span id round-trips" root.Ctx.span_id sc.Ctx.span_id;
      check_bool "parsed context carries no parent" true
        (sc.Ctx.parent_id = None)
  | None -> Alcotest.fail "own traceparent rejected");
  let child = Ctx.child_of root in
  check_string "child keeps the trace id" root.Ctx.trace_id child.Ctx.trace_id;
  check_bool "child gets a fresh span id" true
    (child.Ctx.span_id <> root.Ctx.span_id);
  check_bool "child parented under root" true
    (child.Ctx.parent_id = Some root.Ctx.span_id);
  let other = Ctx.new_root () in
  check_bool "roots are distinct traces" true
    (other.Ctx.trace_id <> root.Ctx.trace_id)

let test_traceparent_rejects_malformed () =
  let root = Ctx.new_root () in
  let tp = Ctx.to_traceparent root in
  let zeros n = String.make n '0' in
  List.iter
    (fun (what, s) ->
      check_bool (Printf.sprintf "rejects %s" what) true
        (Ctx.of_traceparent s = None))
    [
      ("empty", "");
      ("truncated", String.sub tp 0 54);
      ("padded", tp ^ "0");
      ("wrong version", "01" ^ String.sub tp 2 53);
      ("non-hex trace id", "00-" ^ String.make 32 'g' ^ "-" ^ String.sub tp 36 19);
      ("all-zero trace id", "00-" ^ zeros 32 ^ "-" ^ String.sub tp 36 19);
      ("all-zero span id", String.sub tp 0 36 ^ zeros 16 ^ "-01");
      ("missing dashes", String.map (fun c -> if c = '-' then '0' else c) tp);
    ]

let test_ambient_context_scoping () =
  check_bool "no ambient context by default" true (Ctx.current () = None);
  let a = ctx ~span:(Ctx.new_root ()) "req-a"
  and b = ctx ~span:(Ctx.new_root ()) "req-b" in
  Ctx.with_ctx a (fun () ->
      check_bool "installed" true (Ctx.current () = Some a);
      Ctx.with_ctx b (fun () ->
          check_bool "nested shadows" true (Ctx.current () = Some b));
      check_bool "restored after nesting" true (Ctx.current () = Some a);
      (match Ctx.with_ctx b (fun () -> raise Exit) with
      | exception Exit -> ()
      | _ -> Alcotest.fail "Exit swallowed");
      check_bool "restored after raise" true (Ctx.current () = Some a));
  check_bool "cleared at the outer exit" true (Ctx.current () = None);
  Ctx.with_ctx (ctx "req-c") (fun () ->
      check_bool "a context without a span installs no span context" true
        (match Ctx.current () with
        | Some { Ctx.cid = "req-c"; span = None } -> true
        | _ -> false));
  (* Ambient context is domain-local: a worker domain starts clean. *)
  Ctx.with_ctx a (fun () ->
      let d = Domain.spawn (fun () -> Ctx.current ()) in
      check_bool "fresh domain sees no context" true (Domain.join d = None))

let arg_str key ev =
  match Wire.member "args" ev with
  | Some args -> (
      match Wire.member key args with Some (Wire.String s) -> Some s | _ -> None)
  | None -> None

let find_event name events =
  match
    List.find_opt (fun ev -> Wire.member "name" ev = Some (Wire.String name)) events
  with
  | Some ev -> ev
  | None -> Alcotest.failf "no %S event in trace" name

let test_events_stamped_with_ctx () =
  let path = Filename.temp_file "rvu_test" ".trace.json" in
  Trace.enable ~path ();
  let root = Ctx.new_root () in
  let child = Ctx.child_of root in
  span "unstamped";
  Ctx.with_ctx (ctx ~span:root "req-root") (fun () -> span "at-root");
  Ctx.with_ctx (ctx ~span:child "req-child") (fun () -> span "at-child");
  Trace.close ();
  let events = parse_trace path in
  check_bool "no context, no stamp" true
    (arg_str "trace_id" (find_event "unstamped" events) = None);
  let at_root = find_event "at-root" events in
  check_bool "root trace id stamped" true
    (arg_str "trace_id" at_root = Some root.Ctx.trace_id);
  check_bool "root span id stamped" true
    (arg_str "span_id" at_root = Some root.Ctx.span_id);
  check_bool "root event has no parent_id" true
    (arg_str "parent_id" at_root = None);
  check_bool "correlation id stamped alongside" true
    (arg_str "ctx" at_root = Some "req-root");
  let at_child = find_event "at-child" events in
  check_bool "child span id stamped" true
    (arg_str "span_id" at_child = Some child.Ctx.span_id);
  check_bool "child parent_id is the root span" true
    (arg_str "parent_id" at_child = Some root.Ctx.span_id);
  Sys.remove path

(* The bytes of one complete event recorded under a traced context: the
   event's own args come first, then the correlation id and the span
   ids, in that order. *)
let test_complete_event_bytes () =
  let path = Filename.temp_file "rvu_test" ".trace.json" in
  Trace.enable ~path ();
  let sc =
    {
      Ctx.trace_id = "4bf92f3577b34da6a3ce929d0e0e4736";
      span_id = "00f067aa0ba902b7";
      parent_id = Some "b7ad6b7169203331";
    }
  in
  Ctx.with_ctx (ctx ~span:sc "req-7") (fun () ->
      Trace.complete
        ~args:[ ("kind", Wire.String "simulate"); ("shard", Wire.Int 1) ]
        ~tid:3 ~ts_us:1500.0 ~dur_us:250.5 "forward");
  Trace.close ();
  let lines = String.split_on_char '\n' (read_file path) in
  Sys.remove path;
  check_string "event bytes"
    "{\"name\":\"forward\",\"cat\":\"rvu\",\"ph\":\"X\",\"ts\":1500.0,\"dur\":250.5,\"pid\":1,\"tid\":3,\"args\":{\"kind\":\"simulate\",\"shard\":1,\"ctx\":\"req-7\",\"trace_id\":\"4bf92f3577b34da6a3ce929d0e0e4736\",\"span_id\":\"00f067aa0ba902b7\",\"parent_id\":\"b7ad6b7169203331\"}}"
    (List.nth lines 2)

let test_retain_survives_ring_wrap () =
  let path = Filename.temp_file "rvu_test" ".trace.json" in
  Trace.enable ~capacity:4 ~path ();
  let sc = Ctx.new_root () in
  Ctx.with_ctx (ctx ~span:sc "req-slow") (fun () ->
      span "slow1";
      span "slow2");
  Trace.retain ~trace_id:sc.Ctx.trace_id;
  for i = 1 to 8 do
    span (Printf.sprintf "fill%d" i)
  done;
  Trace.close ();
  let events = parse_trace path in
  let meta = List.hd events in
  let meta_arg k =
    match Wire.member "args" meta with Some a -> Wire.member k a | None -> None
  in
  check_bool "both retained copies re-emitted" true
    (meta_arg "force_retained" = Some (Wire.Int 2));
  check_bool "drop count honest" true
    (meta_arg "dropped_oldest" = Some (Wire.Int 6));
  (* The slow request's events survive the wrap, still stamped. *)
  check_bool "slow1 survives the wrap" true
    (arg_str "trace_id" (find_event "slow1" events) = Some sc.Ctx.trace_id);
  check_bool "slow2 survives the wrap" true
    (arg_str "trace_id" (find_event "slow2" events) = Some sc.Ctx.trace_id);
  (* And the ring window is intact behind them. *)
  let names =
    List.filter_map
      (fun ev ->
        match Wire.member "name" ev with
        | Some (Wire.String n) when n <> "rvu.trace" -> Some n
        | _ -> None)
      events
  in
  Alcotest.(check (list string))
    "retained copies first, then the last ring window"
    [ "slow1"; "slow2"; "fill5"; "fill6"; "fill7"; "fill8" ]
    names;
  Sys.remove path

let test_dropped_counter_mirrors_ring () =
  let dropped = Metrics.counter "rvu_trace_dropped_total" in
  let before = Metrics.counter_value dropped in
  let path = Filename.temp_file "rvu_test" ".trace.json" in
  Trace.enable ~capacity:2 ~path ();
  for i = 1 to 5 do
    span (Printf.sprintf "d%d" i)
  done;
  Trace.close ();
  Sys.remove path;
  check_int "counter advanced by the overwrites" 3
    (Metrics.counter_value dropped - before)

(* ------------------------------------------------------------------ *)
(* Exemplars: histogram buckets remember a trace id *)

let test_exemplars_attach_trace_id () =
  let h =
    Metrics.histogram ~buckets:[| 0.5; 1.0 |] "test_obs_exemplar_seconds"
  in
  Metrics.observe h 0.25;
  check_bool "no ambient context, no exemplar" true (Metrics.exemplars h = []);
  let untraced =
    Metrics.histogram ~buckets:[| 0.5; 1.0 |]
      "test_obs_exemplar_untraced_seconds"
  in
  Ctx.with_ctx (ctx "req-untraced") (fun () -> Metrics.observe untraced 0.25);
  check_bool "a context without a span context, no exemplar" true
    (Metrics.exemplars untraced = []);
  let sc = Ctx.new_root () in
  Ctx.with_ctx (ctx ~span:sc "req-x") (fun () -> Metrics.observe h 0.75);
  (match Metrics.exemplars h with
  | [ (v, t, _ts) ] ->
      check_bool "observed value kept" true (v = 0.75);
      check_string "exemplar carries the ambient trace id" sc.Ctx.trace_id t
  | l -> Alcotest.failf "expected 1 exemplar, got %d" (List.length l));
  (* Latest observation in a bucket wins. *)
  let sc2 = Ctx.new_root () in
  Ctx.with_ctx (ctx ~span:sc2 "req-y") (fun () -> Metrics.observe h 0.8);
  (match Metrics.exemplars h with
  | [ (v, t, _) ] ->
      check_bool "latest wins" true (v = 0.8 && t = sc2.Ctx.trace_id)
  | l -> Alcotest.failf "expected 1 exemplar, got %d" (List.length l));
  (* Private histograms are measurement state: never exemplared. *)
  let p = Metrics.private_histogram () in
  Ctx.with_ctx (ctx ~span:sc "req-x") (fun () -> Metrics.observe p 0.1);
  check_bool "private histogram takes no exemplar" true
    (Metrics.exemplars p = []);
  let text = Metrics.expose_openmetrics () in
  check_bool "bucket line annotated with the trace id" true
    (contains
       ~needle:
         (Printf.sprintf
            "test_obs_exemplar_seconds_bucket{le=\"1.0\"} 3 # {trace_id=%S} 0.8"
            sc2.Ctx.trace_id)
       text);
  check_bool "terminated by # EOF" true
    (String.length text >= 6
    && String.sub text (String.length text - 6) 6 = "# EOF\n")

(* ------------------------------------------------------------------ *)
(* Trace stitcher *)

module Trace_merge = Rvu_obs.Trace_merge

let write_trace_file events =
  let path = Filename.temp_file "rvu_test" ".trace" in
  let oc = open_out path in
  output_string oc (Wire.print (Wire.List events));
  close_out oc;
  path

let span ?(name = "serve") ?(tid = 1) ~ts ~dur args =
  Wire.Obj
    [
      ("name", Wire.String name);
      ("cat", Wire.String "rvu");
      ("ph", Wire.String "X");
      ("ts", Wire.Float ts);
      ("dur", Wire.Float dur);
      ("pid", Wire.Int 1);
      ("tid", Wire.Int tid);
      ("args", Wire.Obj (List.map (fun (k, v) -> (k, Wire.String v)) args));
    ]

let test_trace_merge_stitches () =
  let t = String.make 31 'a' ^ "1" in
  let fwd_span = String.make 15 'b' ^ "2" in
  let serve_span = String.make 15 'c' ^ "3" in
  let router =
    write_trace_file
      [
        span ~name:"forward" ~tid:7 ~ts:1000.0 ~dur:500.0
          [ ("trace_id", t); ("span_id", fwd_span); ("kind", "simulate") ];
      ]
  in
  let shard =
    write_trace_file
      [
        span ~name:"serve" ~tid:3 ~ts:1100.0 ~dur:300.0
          [ ("trace_id", t); ("span_id", serve_span); ("parent_id", fwd_span) ];
        (* A GC pause overlapping the serve span, unstamped at record
           time — the stitcher attributes it by time overlap. *)
        span ~name:"gc.minor" ~tid:9000 ~ts:1150.0 ~dur:10.0 [];
      ]
  in
  let out = Filename.temp_file "rvu_test" ".merged.json" in
  (match
     Trace_merge.merge
       ~inputs:[ ("router", router); ("shard0", shard) ]
       ~out
   with
  | Error e -> Alcotest.failf "merge failed: %s" e
  | Ok s ->
      check_int "two files" 2 s.Trace_merge.files;
      check_int "one trace id" 1 s.Trace_merge.trace_ids;
      check_int "the trace crosses processes" 1 s.Trace_merge.cross_process;
      check_int "and reaches a GC lane (3 lanes)" 1 s.Trace_merge.three_lane;
      check_int "shard serve re-parented under the forward" 1
        s.Trace_merge.reparented);
  let events = parse_trace out in
  (* Process lanes: router, shard0, and shard0's GC lane, distinctly
     numbered. *)
  let lanes =
    List.filter_map
      (fun ev ->
        if Wire.member "name" ev = Some (Wire.String "process_name") then
          match (Wire.member "pid" ev, arg_str "name" ev) with
          | Some (Wire.Int pid), Some name -> Some (pid, name)
          | _ -> None
        else None)
      events
  in
  check_bool "three named process lanes" true
    (List.length lanes = 3
    && List.map snd lanes = [ "router"; "shard0"; "shard0 gc" ]
    && List.sort_uniq compare (List.map fst lanes) |> List.length = 3);
  (* The GC pause was attributed to the overlapping request's trace. *)
  check_bool "gc pause stamped by overlap" true
    (arg_str "trace_id" (find_event "gc.minor" events) = Some t);
  (* The flow pair that renders the re-parenting. *)
  let flow ph =
    List.exists
      (fun ev ->
        Wire.member "ph" ev = Some (Wire.String ph)
        && Wire.member "id" ev
           = Some (Wire.String (t ^ "-" ^ fwd_span)))
      events
  in
  check_bool "flow start at the forward" true (flow "s");
  check_bool "flow finish at the serve" true (flow "f");
  List.iter Sys.remove [ router; shard; out ]

let test_trace_merge_rejects_bad_input () =
  let out = Filename.temp_file "rvu_test" ".merged.json" in
  check_bool "missing file is an error" true
    (match
       Trace_merge.merge ~inputs:[ ("x", "/nonexistent-dir/x.trace") ] ~out
     with
    | Error _ -> true
    | Ok _ -> false);
  let not_array = Filename.temp_file "rvu_test" ".trace" in
  let oc = open_out not_array in
  output_string oc "{\"not\":\"an array\"}";
  close_out oc;
  check_bool "non-array trace is an error" true
    (match Trace_merge.merge ~inputs:[ ("x", not_array) ] ~out with
    | Error _ -> true
    | Ok _ -> false);
  List.iter Sys.remove [ not_array; out ]

(* ------------------------------------------------------------------ *)
(* Runtime sampler *)

module Runtime = Rvu_obs.Runtime

let test_runtime_lifecycle () =
  check_bool "not running initially" false (Runtime.running ());
  Runtime.stop ();
  check_bool "stop before start is a no-op" false (Runtime.running ());
  check_bool "non-positive interval raises" true
    (match Runtime.start ~interval_s:0.0 () with
    | _ -> false
    | exception Invalid_argument _ -> true);
  Runtime.start ~interval_s:0.05 ();
  check_bool "running after start" true (Runtime.running ());
  Runtime.start ~interval_s:0.05 ();
  check_bool "second start is a no-op" true (Runtime.running ());
  Runtime.stop ();
  check_bool "stopped" false (Runtime.running ());
  Runtime.stop ();
  check_bool "stop is idempotent" false (Runtime.running ())

let test_runtime_major_pace_warn () =
  Log.configure ~level:Log.Warn (Log.Ring 64);
  Fun.protect
    ~finally:(fun () ->
      Runtime.stop ();
      Log.close ())
    (fun () ->
      (* Threshold low enough that a single major per tick trips it. *)
      Runtime.start ~interval_s:0.05 ~major_pace_warn:0.1 ();
      let warned () =
        List.exists
          (fun line ->
            field "msg" (parse_line line)
            = Some (Wire.String "gc major pace high"))
          (Log.ring_contents ())
      in
      let deadline = Unix.gettimeofday () +. 5.0 in
      while (not (warned ())) && Unix.gettimeofday () < deadline do
        Gc.full_major ();
        Unix.sleepf 0.01
      done;
      check_bool "major-pace warn emitted" true (warned ());
      (* The warn record carries the numbers a responder needs. *)
      let rec last = function
        | [] -> Alcotest.fail "warn vanished"
        | [ l ] -> parse_line l
        | _ :: rest -> last rest
      in
      let fields =
        last
          (List.filter
             (fun line ->
               field "msg" (parse_line line)
               = Some (Wire.String "gc major pace high"))
             (Log.ring_contents ()))
      in
      List.iter
        (fun k ->
          check_bool (Printf.sprintf "warn has %s" k) true
            (field k fields <> None))
        [ "majors_per_s"; "threshold"; "heap_words" ])

let () =
  Alcotest.run "obs"
    [
      ( "registry",
        [
          Alcotest.test_case "registration idempotent" `Quick
            test_registration_idempotent;
          Alcotest.test_case "kind mismatch raises" `Quick
            test_kind_mismatch_raises;
          Alcotest.test_case "concurrent counter exact" `Quick
            test_concurrent_counter_exact;
          Alcotest.test_case "concurrent histogram count" `Quick
            test_concurrent_histogram_count;
          Alcotest.test_case "kill switch" `Quick test_kill_switch;
        ] );
      ( "quantiles",
        [
          QCheck_alcotest.to_alcotest prop_bucketed_quantile_error_bounded;
          Alcotest.test_case "edge cases" `Quick test_quantile_edge_cases;
        ] );
      ( "exposition",
        [
          Alcotest.test_case "prometheus text" `Quick
            test_prometheus_exposition;
          Alcotest.test_case "json snapshot" `Quick test_json_snapshot;
          Alcotest.test_case "buffered writer output pinned" `Quick
            test_exposition_exact_lines;
        ] );
      ( "log",
        [
          Alcotest.test_case "level gate" `Quick test_log_level_gate;
          Alcotest.test_case "ndjson round trip" `Quick
            test_log_ndjson_round_trip;
          Alcotest.test_case "multi-domain interleaving" `Quick
            test_log_multi_domain_interleaving;
          Alcotest.test_case "flight-recorder dump" `Quick
            test_log_flight_recorder_dump;
        ] );
      ( "trace",
        [
          Alcotest.test_case "file well-formed" `Quick
            test_trace_file_well_formed;
          Alcotest.test_case "ring keeps the last events" `Quick
            test_trace_ring_keeps_last;
          Alcotest.test_case "unwritable path" `Quick
            test_trace_unwritable_path;
          Alcotest.test_case "complete event bytes pinned" `Quick
            test_complete_event_bytes;
          Alcotest.test_case "retain survives ring wrap" `Quick
            test_retain_survives_ring_wrap;
          Alcotest.test_case "dropped counter mirrors ring" `Quick
            test_dropped_counter_mirrors_ring;
        ] );
      ( "context",
        [
          Alcotest.test_case "traceparent round trip" `Quick
            test_span_context_roundtrip;
          Alcotest.test_case "malformed traceparent rejected" `Quick
            test_traceparent_rejects_malformed;
          Alcotest.test_case "ambient scoping" `Quick
            test_ambient_context_scoping;
          Alcotest.test_case "events stamped with context" `Quick
            test_events_stamped_with_ctx;
          Alcotest.test_case "exemplars attach trace ids" `Quick
            test_exemplars_attach_trace_id;
        ] );
      ( "trace-merge",
        [
          Alcotest.test_case "stitches processes, GC and flows" `Quick
            test_trace_merge_stitches;
          Alcotest.test_case "rejects bad input" `Quick
            test_trace_merge_rejects_bad_input;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "sampler lifecycle" `Quick
            test_runtime_lifecycle;
          Alcotest.test_case "major-pace warn" `Quick
            test_runtime_major_pace_warn;
        ] );
    ]
