open Rvu_core

type t = {
  lock : Mutex.t;
  n : int;
  lines : string array;
  sent : float array;
  latency : float array; (* seconds; negative until the response arrives *)
  slow_ms : float option; (* log responses slower than this at warn *)
  mutable completed : int;
  mutable ok : int;
  mutable overloaded : int;
  mutable timeouts : int;
  mutable other_errors : int;
  mutable t_start : float;
  mutable t_last : float;
  mutable wakers : Unix.file_descr list;
      (* write ends of the pipes the running {!wait}s block on *)
}

let now = Rvu_obs.Clock.now_s

(* ------------------------------------------------------------------ *)
(* The default scenario mix *)

(* Twelve templates covering every request kind and every registered
   model. Eleven repeat verbatim across cycles — those are the cache's
   bread and butter — while template 5 takes a per-request unique
   distance, keeping a steady trickle of cold simulations in the stream.
   All instances are shallow (large r, small d) so a smoke run of a few
   hundred requests finishes in seconds. *)
let template ~unique_d ~rounds i =
  match i mod 12 with
        | 0 ->
            Proto.Simulate
              {
                attrs = Attributes.make ~tau:0.5 ();
                d = 1.5;
                bearing = 0.0;
                r = 0.5;
                horizon = 1e7;
                algorithm4 = false;
                transform = Rvu_core.Symmetry.identity;
              }
        | 1 -> Proto.Feasibility (Attributes.make ~v:2.0 ())
        | 2 ->
            Proto.Bound
              { attrs = Attributes.make ~tau:0.7 (); d = 8.0; r = 0.1 }
        | 3 -> Proto.Schedule rounds
        | 4 -> Proto.Search { d = 4.0; bearing = 0.9; r = 0.5; horizon = 1e7 }
        | 5 ->
            Proto.Simulate
              {
                attrs = Attributes.make ~v:2.0 ();
                d = unique_d;
                bearing = 0.9;
                r = 0.5;
                horizon = 1e7;
                algorithm4 = false;
                transform = Rvu_core.Symmetry.identity;
              }
        | 6 ->
            Proto.Batch
              {
                attrs = Attributes.make ~tau:0.5 ();
                d_lo = 1.0;
                d_hi = 2.0;
                points = 3;
                bearing = 0.9;
                r = 0.4;
                horizon = 1e7;
              }
        | 7 -> Proto.Feasibility (Attributes.make ~chi:Attributes.Opposite ())
        | 8 -> Proto.Bound { attrs = Attributes.make ~v:3.0 (); d = 5.0; r = 0.2 }
        | 9 ->
            Proto.Simulate
              {
                attrs = Attributes.make ~v:1.5 ~tau:0.5 ();
                d = 2.0;
                bearing = 1.2;
                r = 0.5;
                horizon = 1e7;
                algorithm4 = false;
                transform = Rvu_core.Symmetry.identity;
              }
        | 10 ->
            Proto.Model_run
              {
                model = Rvu_model.Cycle_speed.name;
                instance =
                  Rvu_model.Cycle_speed.(instance { default with gap = unique_d });
              }
        | _ ->
            Proto.Model_run
              {
                model = Rvu_model.Visible_bits.name;
                instance =
                  Rvu_model.Visible_bits.(instance { default with d = unique_d });
              }

let mix ~seed n =
  Array.init n (fun i ->
      let unique_d =
        2.0 +. (float_of_int (((seed * 7919) + (i * 104729)) mod 997) /. 997.0)
      in
      (* The model templates pin their length parameter to the seed-0
         cycle start, so they repeat verbatim like the other cached
         templates do. *)
      let cached_d = 2.0 +. (float_of_int ((seed * 7919) mod 997) /. 997.0) in
      let d = if i mod 12 = 5 then unique_d else cached_d in
      let request = template ~unique_d:d ~rounds:8 i in
      Wire.print (Proto.wire_of_request ~id:(Wire.Int (i + 1)) request))

(* ------------------------------------------------------------------ *)
(* The Zipf-skewed mix *)

(* A fixed population of requests spanning every kind and model: member
   j is the template cycle with a per-member jitter on the parameter the
   template takes (distance, or rounds for schedules), so of the 64
   members the 21 jittered ones have distinct canonical keys and the
   rest repeat the other eight templates. A schedule's rounds wrap at the
   last round whose segment count fits an int: the six schedule members
   ask for rounds 4, 16, 28, 12, 24 and 8. Rank follows membership
   order. *)
let zipf_population ~seed n =
  Array.init n (fun j ->
      let dj =
        2.0 +. (float_of_int (((j * 37) + seed) mod 101) /. 101.0)
      in
      template ~unique_d:dj
        ~rounds:(1 + (j mod Rvu_search.Timing.max_schedule_round))
        j)

(* Closed-loop Zipf sampling: request i draws population rank k with
   probability proportional to 1/(k+1)^s via inverse-CDF lookup. Pacing,
   id assignment and response matching are untouched — only which line
   gets sent changes. *)
let zipf_lines ~seed ~s n =
  let pop = zipf_population ~seed 64 in
  let m = Array.length pop in
  let weights = Array.init m (fun k -> 1.0 /. (float_of_int (k + 1) ** s)) in
  let total = Array.fold_left ( +. ) 0.0 weights in
  let cdf = Array.make m 0.0 in
  let acc = ref 0.0 in
  Array.iteri
    (fun k w ->
      acc := !acc +. w;
      cdf.(k) <- !acc /. total)
    weights;
  let rng = Rvu_workload.Rng.create ~seed:(Int64.of_int (seed lxor 0x5eed)) in
  Array.init n (fun i ->
      let u = Rvu_workload.Rng.float rng in
      let rec find k = if k >= m - 1 || u <= cdf.(k) then k else find (k + 1) in
      Wire.print
        (Proto.wire_of_request ~id:(Wire.Int (i + 1)) pop.(find 0)))

let create ?(seed = 0) ?lines ?slow_ms ?zipf ~requests () =
  if requests < 1 then invalid_arg "Loadgen.create: requests < 1";
  (match slow_ms with
  | Some ms when not (Float.is_finite ms && ms > 0.0) ->
      invalid_arg "Loadgen.create: slow_ms must be positive and finite"
  | _ -> ());
  (match zipf with
  | Some s when not (Float.is_finite s && s > 0.0) ->
      invalid_arg "Loadgen.create: zipf must be positive and finite"
  | _ -> ());
  let lines =
    match lines with
    | Some l ->
        if zipf <> None then
          invalid_arg "Loadgen.create: lines and zipf are exclusive";
        if Array.length l <> requests then
          invalid_arg "Loadgen.create: lines length does not match requests";
        l
    | None -> (
        match zipf with
        | Some s -> zipf_lines ~seed ~s requests
        | None -> mix ~seed requests)
  in
  {
    lock = Mutex.create ();
    n = requests;
    lines;
    sent = Array.make requests 0.0;
    latency = Array.make requests (-1.0);
    slow_ms;
    completed = 0;
    ok = 0;
    overloaded = 0;
    timeouts = 0;
    other_errors = 0;
    t_start = 0.0;
    t_last = 0.0;
    wakers = [];
  }

let drive ?(rate = 0.0) ~send t =
  t.t_start <- now ();
  Array.iteri
    (fun i line ->
      if rate > 0.0 then begin
        let due = t.t_start +. (float_of_int i /. rate) in
        let rec pace () =
          let dt = due -. now () in
          if dt > 0.0 then begin
            Unix.sleepf dt;
            pace ()
          end
        in
        pace ()
      end;
      Mutex.lock t.lock;
      t.sent.(i) <- now ();
      Mutex.unlock t.lock;
      send line)
    t.lines

let classify t response =
  match Wire.member "error" response with
  | None -> t.ok <- t.ok + 1
  | Some err -> (
      match Wire.member "code" err with
      | Some (Wire.String "overloaded") -> t.overloaded <- t.overloaded + 1
      | Some (Wire.String "timeout") -> t.timeouts <- t.timeouts + 1
      | _ -> t.other_errors <- t.other_errors + 1)

let note_response t line =
  let arrived = now () in
  Mutex.lock t.lock;
  (match Wire.parse line with
  | Error _ ->
      t.other_errors <- t.other_errors + 1;
      t.completed <- t.completed + 1
  | Ok response -> (
      match Wire.member "id" response with
      | Some (Wire.Int id) when id >= 1 && id <= t.n && t.latency.(id - 1) < 0.0
        ->
          let latency = arrived -. t.sent.(id - 1) in
          t.latency.(id - 1) <- latency;
          (match t.slow_ms with
          | Some target when latency *. 1000.0 > target ->
              (* The request's correlation id ("req-<id>" by construction:
                 the mix numbers envelope ids 1..n) is installed so the
                 warn record joins the server's own logs for the same
                 request. *)
              Rvu_obs.Ctx.with_ctx
                { cid = "req-" ^ string_of_int id; span = None }
                (fun () ->
                  Rvu_obs.Log.warn
                    ~fields:
                      [
                        ("latency_ms", Wire.Float (latency *. 1000.0));
                        ("target_ms", Wire.Float target);
                      ]
                    "slow request")
          | _ -> ());
          classify t response;
          t.completed <- t.completed + 1
      | _ ->
          (* Unknown or duplicate id: a protocol error, but still progress —
             count it so a confused run terminates rather than hangs. *)
          t.other_errors <- t.other_errors + 1;
          t.completed <- t.completed + 1));
  t.t_last <- arrived;
  (* One byte per waker, once: [completed] reaches [n] exactly once. *)
  if t.completed = t.n then
    List.iter
      (fun w -> ignore (Unix.single_write_substring w "!" 0 1))
      t.wakers;
  Mutex.unlock t.lock

(* The stdlib has no timed condition wait, so [wait] blocks in [select]
   on a pipe of its own, bounded by the time left; [note_response] writes
   to every registered pipe when the last response lands. The pipe is
   registered before completion is first checked, so a wake-up cannot
   fall between the check and the [select]. *)
let wait ?(timeout_s = 120.0) t =
  let deadline = now () +. timeout_s in
  let r, w = Unix.pipe ~cloexec:true () in
  Mutex.lock t.lock;
  t.wakers <- w :: t.wakers;
  while t.completed < t.n && now () < deadline do
    Mutex.unlock t.lock;
    (* A negative timeout would block without bound. *)
    (try ignore (Unix.select [ r ] [] [] (Float.max 0.0 (deadline -. now ())))
     with Unix.Unix_error (Unix.EINTR, _, _) -> ());
    Mutex.lock t.lock
  done;
  let complete = t.completed >= t.n in
  t.wakers <- List.filter (( <> ) w) t.wakers;
  Mutex.unlock t.lock;
  Unix.close r;
  Unix.close w;
  complete

(* ------------------------------------------------------------------ *)
(* Reporting *)

type summary = {
  requests : int;
  completed : int;
  ok : int;
  overloaded : int;
  timeouts : int;
  other_errors : int;
  wall_s : float;
  throughput_rps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  p999_ms : float;
  mean_ms : float;
  max_ms : float;
}

let summary t =
  Mutex.lock t.lock;
  let ms =
    Array.fold_right
      (fun l acc -> if l >= 0.0 then (l *. 1000.0) :: acc else acc)
      t.latency []
  in
  let wall_s = Float.max 1e-9 (t.t_last -. t.t_start) in
  let pct q =
    if ms = [] then Float.nan
    else Rvu_numerics.Stats.percentile (100.0 *. q) ms
  in
  let s =
    {
      requests = t.n;
      completed = t.completed;
      ok = t.ok;
      overloaded = t.overloaded;
      timeouts = t.timeouts;
      other_errors = t.other_errors;
      wall_s;
      throughput_rps = float_of_int t.completed /. wall_s;
      p50_ms = pct 0.50;
      p95_ms = pct 0.95;
      p99_ms = pct 0.99;
      p999_ms = pct 0.999;
      mean_ms =
        (if ms = [] then Float.nan
         else List.fold_left ( +. ) 0.0 ms /. float_of_int (List.length ms));
      max_ms = pct 1.0;
    }
  in
  Mutex.unlock t.lock;
  s

let finite_or_null x = if Float.is_finite x then Wire.Float x else Wire.Null

let summary_json s =
  Wire.Obj
    [
      ("requests", Wire.Int s.requests);
      ("completed", Wire.Int s.completed);
      ("ok", Wire.Int s.ok);
      ("overloaded", Wire.Int s.overloaded);
      ("timeouts", Wire.Int s.timeouts);
      ("other_errors", Wire.Int s.other_errors);
      ("wall_s", Wire.Float s.wall_s);
      ("throughput_rps", Wire.Float s.throughput_rps);
      ("p50_ms", finite_or_null s.p50_ms);
      ("p95_ms", finite_or_null s.p95_ms);
      ("p99_ms", finite_or_null s.p99_ms);
      ("p999_ms", finite_or_null s.p999_ms);
      ("mean_ms", finite_or_null s.mean_ms);
      ("max_ms", finite_or_null s.max_ms);
    ]

let print_summary s =
  Printf.printf "requests:    %d (%d completed)\n" s.requests s.completed;
  Printf.printf "ok:          %d\n" s.ok;
  Printf.printf "overloaded:  %d\n" s.overloaded;
  Printf.printf "timeouts:    %d\n" s.timeouts;
  Printf.printf "errors:      %d\n" s.other_errors;
  Printf.printf "wall:        %.3f s (%.1f req/s)\n" s.wall_s s.throughput_rps;
  Printf.printf
    "latency ms:  p50 %.3f  p95 %.3f  p99 %.3f  p99.9 %.3f  mean %.3f  max \
     %.3f\n\
     %!"
    s.p50_ms s.p95_ms s.p99_ms s.p999_ms s.mean_ms s.max_ms
