type event = {
  name : string;
  ph : char; (* 'B' begin, 'E' end, 'i' instant, 'X' complete *)
  ts : float; (* microseconds, monotonic *)
  dur : float; (* microseconds; only meaningful for 'X' events *)
  tid : int;
  seq : int; (* recording order, process-wide — retention dedup key *)
  args : (string * Wire.t) list;
}

type sink = {
  oc : out_channel;
  lock : Mutex.t;
  ring : event option array;
  mutable next : int; (* slot for the next event *)
  mutable recorded : int; (* total events ever recorded *)
  mutable kept : event list; (* force-retained copies (slow requests) *)
}

type span = Disabled | Span of { name : string }

(* ------------------------------------------------------------------ *)
(* Recording *)

(* A single atomic holds the whole tracer state: the enabled check on
   every instrumentation site is one [Atomic.get] and a branch. *)
let sink : sink option Atomic.t = Atomic.make None

let enabled () = Atomic.get sink <> None

let m_dropped =
  Metrics.counter
    ~help:"Trace ring events overwritten before the file was written."
    "rvu_trace_dropped_total"

let record ~name ~ph ~ts ~dur ~tid args =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      let ev = { name; ph; ts; dur; tid; seq = s.recorded; args } in
      (match s.ring.(s.next) with
      | Some _ -> Metrics.incr m_dropped
      | None -> ());
      s.ring.(s.next) <- Some ev;
      s.next <- (s.next + 1) mod Array.length s.ring;
      s.recorded <- s.recorded + 1;
      Mutex.unlock s.lock

let tid () = (Domain.self () :> int)

(* Events recorded while a request context is ambient carry its
   correlation id as a ["ctx"] arg, so a log grep and a trace lane meet on
   the same string, and its span context as trace_id/span_id/parent_id,
   which is what the trace stitcher joins on. Only consulted when tracing
   is on — the disabled path is unchanged. *)
let stamp args =
  match Ctx.current () with
  | None -> args
  | Some c -> (
      let args =
        if List.mem_assoc "ctx" args then args
        else args @ [ ("ctx", Wire.String c.Ctx.cid) ]
      in
      match c.Ctx.span with
      | Some sc when not (List.mem_assoc "trace_id" args) ->
          args
          @ ("trace_id", Wire.String sc.Ctx.trace_id)
            :: ("span_id", Wire.String sc.Ctx.span_id)
            ::
            (match sc.Ctx.parent_id with
            | None -> []
            | Some p -> [ ("parent_id", Wire.String p) ])
      | _ -> args)

let begin_span ?(args = []) name =
  if Atomic.get sink = None then Disabled
  else begin
    record ~name ~ph:'B' ~ts:(Clock.now_us ()) ~dur:0.0 ~tid:(tid ())
      (stamp args);
    Span { name }
  end

let end_span = function
  | Disabled -> ()
  | Span { name } ->
      record ~name ~ph:'E' ~ts:(Clock.now_us ()) ~dur:0.0 ~tid:(tid ()) []

let with_span ?args name f =
  let s = begin_span ?args name in
  Fun.protect ~finally:(fun () -> end_span s) f

let instant ?(args = []) name =
  if Atomic.get sink <> None then
    record ~name ~ph:'i' ~ts:(Clock.now_us ()) ~dur:0.0 ~tid:(tid ())
      (stamp args)

(* Complete ('X') events carry begin and duration in one record, so the
   two ends need not land on the same domain — the router's forward span
   begins on the client-connection domain and resolves on the shard
   reader domain, where a B/E pair would confuse Chrome's per-tid
   stacking. GC pause lanes use them for the same reason. *)
let complete ?(args = []) ?tid:(tid_arg = -1) ~ts_us ~dur_us name =
  if Atomic.get sink <> None then
    let tid = if tid_arg >= 0 then tid_arg else tid () in
    record ~name ~ph:'X' ~ts:ts_us ~dur:dur_us ~tid (stamp args)

let retain ~trace_id =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      let wanted = Wire.String trace_id in
      Array.iter
        (function
          | Some ev
            when List.exists
                   (fun (k, v) -> k = "trace_id" && v = wanted)
                   ev.args ->
              s.kept <- ev :: s.kept
          | _ -> ())
        s.ring;
      Mutex.unlock s.lock

(* ------------------------------------------------------------------ *)
(* Sink lifecycle *)

let event_json ev =
  Wire.Obj
    ([
       ("name", Wire.String ev.name);
       ("cat", Wire.String "rvu");
       ("ph", Wire.String (String.make 1 ev.ph));
       ("ts", Wire.Float ev.ts);
     ]
    @ (if ev.ph = 'X' then [ ("dur", Wire.Float ev.dur) ] else [])
    @ [ ("pid", Wire.Int 1); ("tid", Wire.Int ev.tid) ]
    @
    match (ev.ph, ev.args) with
    | 'i', args -> ("s", Wire.String "t") :: [ ("args", Wire.Obj args) ]
    | _, [] -> []
    | _, args -> [ ("args", Wire.Obj args) ])

let close () =
  match Atomic.exchange sink None with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      let cap = Array.length s.ring in
      (* Oldest-first: when the ring wrapped, the oldest retained event
         sits at [next]. *)
      let start = if s.recorded > cap then s.next else 0 in
      let retained = min s.recorded cap in
      let dropped = s.recorded - retained in
      (* Force-retained copies are re-emitted only when the ring really
         dropped them (seq below the oldest ring event), deduplicated and
         in recording order, so retention never duplicates a live event. *)
      let kept =
        List.sort_uniq
          (fun a b -> compare a.seq b.seq)
          (List.filter (fun ev -> ev.seq < dropped) s.kept)
      in
      output_string s.oc "[\n";
      let meta =
        Wire.Obj
          [
            ("name", Wire.String "rvu.trace");
            ("ph", Wire.String "i");
            ("s", Wire.String "g");
            ("ts", Wire.Float (Clock.now_us ()));
            ("pid", Wire.Int 1);
            ("tid", Wire.Int (tid ()));
            ( "args",
              Wire.Obj
                [
                  ("recorded", Wire.Int s.recorded);
                  ("dropped_oldest", Wire.Int dropped);
                  ("force_retained", Wire.Int (List.length kept));
                ] );
          ]
      in
      output_string s.oc (Wire.print meta);
      List.iter
        (fun ev ->
          output_string s.oc ",\n";
          output_string s.oc (Wire.print (event_json ev)))
        kept;
      for i = 0 to retained - 1 do
        match s.ring.((start + i) mod cap) with
        | None -> ()
        | Some ev ->
            output_string s.oc ",\n";
            output_string s.oc (Wire.print (event_json ev))
      done;
      output_string s.oc "\n]\n";
      close_out s.oc;
      Mutex.unlock s.lock

let enable ?(capacity = 65536) ~path () =
  if capacity < 2 then invalid_arg "Trace.enable: capacity < 2";
  let oc = open_out path in
  let s =
    {
      oc;
      lock = Mutex.create ();
      ring = Array.make capacity None;
      next = 0;
      recorded = 0;
      kept = [];
    }
  in
  if not (Atomic.compare_and_set sink None (Some s)) then begin
    close_out_noerr oc;
    invalid_arg "Trace.enable: tracing is already enabled"
  end;
  at_exit close
