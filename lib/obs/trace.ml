type event = {
  name : string;
  ts : float; (* microseconds, monotonic *)
  dur : float; (* microseconds *)
  tid : int;
  seq : int; (* recording order, process-wide — retention dedup key *)
  args : (string * Wire.t) list;
  ctx : Ctx.t option; (* the request context ambient at record time *)
}

type sink = {
  oc : out_channel;
  lock : Mutex.t;
  ring : event option array;
  mutable next : int; (* slot for the next event *)
  mutable recorded : int; (* total events ever recorded *)
  mutable kept : event list; (* force-retained copies (slow requests) *)
}

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

(* Complete ('X') events carry begin and duration in one record, so the
   two ends need not land on the same domain — the router's forward span
   begins on the client-connection domain and resolves on the shard
   reader domain. The event keeps the ambient context as the value
   [Ctx.current] returns, so recording copies nothing out of it; [close]
   turns it into args. *)
let complete ?(args = []) ?tid:(tid_arg = -1) ~ts_us ~dur_us name =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      let tid = if tid_arg >= 0 then tid_arg else (Domain.self () :> int) in
      let ctx = Ctx.current () in
      Mutex.lock s.lock;
      let ev =
        { name; ts = ts_us; dur = dur_us; tid; seq = s.recorded; args; ctx }
      in
      (match s.ring.(s.next) with
      | Some _ -> Metrics.incr m_dropped
      | None -> ());
      s.ring.(s.next) <- Some ev;
      s.next <- (s.next + 1) mod Array.length s.ring;
      s.recorded <- s.recorded + 1;
      Mutex.unlock s.lock

let retain ~trace_id =
  match Atomic.get sink with
  | None -> ()
  | Some s ->
      Mutex.lock s.lock;
      Array.iter
        (function
          | Some ({ ctx = Some { Ctx.span = Some sc; _ }; _ } as ev)
            when sc.Ctx.trace_id = trace_id ->
              s.kept <- ev :: s.kept
          | _ -> ())
        s.ring;
      Mutex.unlock s.lock

(* ------------------------------------------------------------------ *)
(* Sink lifecycle *)

(* An event's own args, then the context it was recorded under: the
   correlation id as ["ctx"], so a log grep and a trace lane meet on the
   same string, and the span ids [rvu trace-merge] joins on. *)
let event_json ev =
  let context =
    match ev.ctx with
    | None -> []
    | Some c -> (
        ("ctx", Wire.String c.Ctx.cid)
        ::
        (match c.Ctx.span with
        | None -> []
        | Some sc -> (
            ("trace_id", Wire.String sc.Ctx.trace_id)
            :: ("span_id", Wire.String sc.Ctx.span_id)
            ::
            (match sc.Ctx.parent_id with
            | None -> []
            | Some p -> [ ("parent_id", Wire.String p) ]))))
  in
  Wire.Obj
    ([
       ("name", Wire.String ev.name);
       ("cat", Wire.String "rvu");
       ("ph", Wire.String "X");
       ("ts", Wire.Float ev.ts);
       ("dur", Wire.Float ev.dur);
       ("pid", Wire.Int 1);
       ("tid", Wire.Int ev.tid);
     ]
    @ match ev.args @ context with [] -> [] | args -> [ ("args", Wire.Obj args) ])

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
            ("tid", Wire.Int (Domain.self () :> int));
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
  if capacity < 1 then invalid_arg "Trace.enable: capacity < 1";
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
