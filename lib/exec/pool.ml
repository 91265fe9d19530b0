let recommended_jobs () = Domain.recommended_domain_count ()

(* Hard ceiling on spawned domains: beyond the hardware parallelism there
   is only scheduling overhead, and the runtime degrades with very large
   domain counts. *)
let max_jobs = 128

let parallel_map ?jobs f xs =
  let n = Array.length xs in
  let jobs =
    match jobs with Some j -> j | None -> recommended_jobs ()
  in
  let jobs = max 1 (min jobs (min n max_jobs)) in
  if jobs <= 1 || n <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    let cursor = Atomic.make 0 in
    (* Small chunks keep heterogeneous workloads balanced; several chunks
       per worker amortize the atomic traffic. *)
    let chunk = max 1 (n / (jobs * 8)) in
    let worker () =
      let rec loop () =
        let start = Atomic.fetch_and_add cursor chunk in
        if start < n then begin
          let stop = min n (start + chunk) in
          for i = start to stop - 1 do
            let cell =
              match f xs.(i) with
              | y -> Ok y
              | exception e -> Error (e, Printexc.get_raw_backtrace ())
            in
            results.(i) <- Some cell
          done;
          loop ()
        end
      in
      loop ()
    in
    let spawned = List.init (jobs - 1) (fun _ -> Domain.spawn worker) in
    worker ();
    List.iter Domain.join spawned;
    (* Ascending scan: the first Error hit is the lowest-index failure, so
       the re-raise is deterministic whatever the domain interleaving. *)
    Array.map
      (function
        | Some (Ok y) -> y
        | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
        | None -> assert false)
      results
  end

let parallel_map_list ?jobs f xs =
  Array.to_list (parallel_map ?jobs f (Array.of_list xs))

(* ------------------------------------------------------------------ *)
(* Persistent executor *)

module Persistent = struct
  type t = {
    lock : Mutex.t;
    work : Condition.t;
    queue : (Rvu_obs.Ctx.t option * (unit -> unit)) Queue.t;
        (* (the submitter's request context, task) *)
    mutable stopped : bool;
    mutable workers : unit Domain.t list;
    jobs : int;
  }

  (* Aggregated over every pool in the process (services run one). *)
  let m_queue_depth =
    Rvu_obs.Metrics.gauge ~help:"Tasks enqueued and not yet picked up"
      "rvu_pool_queue_depth"

  let m_task_wall =
    Rvu_obs.Metrics.histogram ~help:"Wall seconds per executed pool task"
      "rvu_pool_task_seconds"

  let m_task_exceptions =
    Rvu_obs.Metrics.counter
      ~help:"Pool tasks that raised (swallowed to keep the worker alive)"
      "rvu_pool_task_exceptions_total"

  let m_workers =
    Rvu_obs.Metrics.gauge ~help:"Live persistent-pool worker domains"
      "rvu_pool_workers"

  let fault_task_crash = Rvu_obs.Fault.site "pool.task_crash"

  let worker t =
    let rec next () =
      if Queue.is_empty t.queue then
        if t.stopped then None
        else begin
          Condition.wait t.work t.lock;
          next ()
        end
      else begin
        Rvu_obs.Metrics.gauge_add m_queue_depth (-1.0);
        Some (Queue.pop t.queue)
      end
    in
    let rec loop () =
      Mutex.lock t.lock;
      match next () with
      | None -> Mutex.unlock t.lock
      | Some (ctx, task) ->
          Mutex.unlock t.lock;
          (* Tasks own their error handling; a raising task must not take
             the worker domain down with it. The submitter's request
             context is re-installed on this domain for the task's extent
             so logs, trace spans and exemplars from inside it stay
             correlated. *)
          let t0 = Rvu_obs.Clock.now_s () in
          let run () =
            try
              Rvu_obs.Fault.crash fault_task_crash "worker task";
              task ()
            with e ->
              Rvu_obs.Metrics.incr m_task_exceptions;
              Rvu_obs.Log.error
                ~fields:
                  [ ("exn", Rvu_obs.Wire.String (Printexc.to_string e)) ]
                "pool task raised"
          in
          (match ctx with
          | None -> run ()
          | Some c -> Rvu_obs.Ctx.with_ctx c run);
          Rvu_obs.Metrics.observe m_task_wall (Rvu_obs.Clock.now_s () -. t0);
          loop ()
    in
    loop ()

  let start ~jobs =
    let jobs = max 1 (min jobs max_jobs) in
    let t =
      {
        lock = Mutex.create ();
        work = Condition.create ();
        queue = Queue.create ();
        stopped = false;
        workers = [];
        jobs;
      }
    in
    t.workers <- List.init jobs (fun _ -> Domain.spawn (fun () -> worker t));
    Rvu_obs.Metrics.gauge_add m_workers (float_of_int jobs);
    t

  let jobs t = t.jobs

  let submit t task =
    let ctx = Rvu_obs.Ctx.current () in
    Mutex.lock t.lock;
    if t.stopped then begin
      Mutex.unlock t.lock;
      invalid_arg "Pool.Persistent.submit: executor is stopped"
    end;
    Queue.push (ctx, task) t.queue;
    Rvu_obs.Metrics.gauge_add m_queue_depth 1.0;
    Condition.signal t.work;
    Mutex.unlock t.lock

  let stop t =
    Mutex.lock t.lock;
    t.stopped <- true;
    Condition.broadcast t.work;
    Mutex.unlock t.lock;
    List.iter Domain.join t.workers;
    Rvu_obs.Metrics.gauge_add m_workers (-.float_of_int (List.length t.workers));
    t.workers <- []
end
