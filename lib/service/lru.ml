(* Hash table + intrusive doubly-linked recency list; every operation is
   O(1) under the lock. *)

type 'a entry = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a entry option; (* towards the most recent *)
  mutable next : 'a entry option; (* towards the least recent *)
}

type 'a t = {
  lock : Mutex.t;
  capacity : int;
  mirror : bool; (* counts into the process-wide result-cache metrics *)
  table : (string, 'a entry) Hashtbl.t;
  mutable head : 'a entry option; (* most recently used *)
  mutable tail : 'a entry option; (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
}

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  capacity : int;
}

(* Process-wide mirrors, aggregated over every mirrored instance (in
   practice: the scheduler's result cache) and cumulative since process
   start. *)
let m_hits =
  Rvu_obs.Metrics.counter ~help:"Result-cache lookups answered from the LRU"
    "rvu_result_cache_hits_total"

let m_misses =
  Rvu_obs.Metrics.counter ~help:"Result-cache lookups that missed"
    "rvu_result_cache_misses_total"

let m_evictions =
  Rvu_obs.Metrics.counter ~help:"Result-cache LRU evictions"
    "rvu_result_cache_evictions_total"

let make ~mirror ~capacity =
  if capacity < 0 then invalid_arg "Lru.create: negative capacity";
  {
    lock = Mutex.create ();
    capacity;
    mirror;
    table = Hashtbl.create (max 16 capacity);
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
  }

let create ~capacity = make ~mirror:true ~capacity
let create_private ~capacity = make ~mirror:false ~capacity

let unlink t e =
  (match e.prev with Some p -> p.next <- e.next | None -> t.head <- e.next);
  (match e.next with Some nx -> nx.prev <- e.prev | None -> t.tail <- e.prev);
  e.prev <- None;
  e.next <- None

let push_front t e =
  e.prev <- None;
  e.next <- t.head;
  (match t.head with Some h -> h.prev <- Some e | None -> t.tail <- Some e);
  t.head <- Some e

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

(* No [locked] here: the body cannot raise, and the closures [locked]'s
   [Fun.protect] costs would land on every warm-path lookup. *)
let lookup ~count_miss (t : 'a t) key =
  Mutex.lock t.lock;
  let r =
    match Hashtbl.find_opt t.table key with
    | Some e ->
        t.hits <- t.hits + 1;
        if t.mirror then Rvu_obs.Metrics.incr m_hits;
        unlink t e;
        push_front t e;
        Some e.value
    | None ->
        if count_miss then begin
          t.misses <- t.misses + 1;
          if t.mirror then Rvu_obs.Metrics.incr m_misses
        end;
        None
  in
  Mutex.unlock t.lock;
  r

let find t key = lookup ~count_miss:true t key
let find_hit t key = lookup ~count_miss:false t key

let length (t : 'a t) =
  Mutex.lock t.lock;
  let n = Hashtbl.length t.table in
  Mutex.unlock t.lock;
  n

let add (t : 'a t) key value =
  if t.capacity > 0 then
    locked t (fun () ->
        (match Hashtbl.find_opt t.table key with
        | Some e ->
            e.value <- value;
            unlink t e;
            push_front t e
        | None ->
            let e = { key; value; prev = None; next = None } in
            Hashtbl.replace t.table key e;
            push_front t e);
        if Hashtbl.length t.table > t.capacity then
          match t.tail with
          | Some lru ->
              Hashtbl.remove t.table lru.key;
              unlink t lru;
              t.evictions <- t.evictions + 1;
              if t.mirror then Rvu_obs.Metrics.incr m_evictions
          | None -> assert false)

let stats (t : 'a t) =
  locked t (fun () ->
      {
        hits = t.hits;
        misses = t.misses;
        evictions = t.evictions;
        entries = Hashtbl.length t.table;
        capacity = t.capacity;
      })
