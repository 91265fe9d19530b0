type counter = { c_ident : string * (string * string) list; cell : int Atomic.t }

type gauge = {
  g_ident : string * (string * string) list;
  g_lock : Mutex.t;
  mutable g_value : float;
}

type exemplar = { e_value : float; e_trace : string; e_ts : float }

type histogram = {
  h_ident : string * (string * string) list;
  h_lock : Mutex.t;
  bounds : float array; (* finite upper bounds, strictly increasing *)
  counts : int array; (* length bounds + 1; last slot is the +Inf bucket *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable samples : float array option; (* Some when retaining; grown 2x *)
  mutable n_samples : int;
  mutable h_exemplars : exemplar option array option;
      (* length bounds + 1, allocated on the first exemplar; slot i holds
         the latest exemplar that landed in bucket i *)
}

type metric = C of counter | G of gauge | H of histogram

(* The recording kill switch (see the mli). A single atomic bool read per
   record keeps disabled-mode cost to one branch. *)
let switch = Atomic.make true
let set_enabled b = Atomic.set switch b
let enabled () = Atomic.get switch

(* ------------------------------------------------------------------ *)
(* Registry *)

type registered = { help : string; metric : metric }

let registry : (string * (string * string) list, registered) Hashtbl.t =
  Hashtbl.create 64

let registry_lock = Mutex.create ()

let ident name labels =
  (name, List.sort (fun (a, _) (b, _) -> String.compare a b) labels)

let kind_name = function
  | C _ -> "counter"
  | G _ -> "gauge"
  | H _ -> "histogram"

let register ~help ~name ~labels make =
  let id = ident name labels in
  Mutex.lock registry_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock registry_lock)
    (fun () ->
      match Hashtbl.find_opt registry id with
      | Some r -> r.metric
      | None ->
          let metric = make id in
          Hashtbl.add registry id { help; metric };
          metric)

let wrong_kind name found wanted =
  invalid_arg
    (Printf.sprintf "Metrics: %S is registered as a %s, not a %s" name
       (kind_name found) wanted)

let counter ?(help = "") ?(labels = []) name =
  match
    register ~help ~name ~labels (fun id ->
        C { c_ident = id; cell = Atomic.make 0 })
  with
  | C c -> c
  | m -> wrong_kind name m "counter"

let gauge ?(help = "") ?(labels = []) name =
  match
    register ~help ~name ~labels (fun id ->
        G { g_ident = id; g_lock = Mutex.create (); g_value = 0.0 })
  with
  | G g -> g
  | m -> wrong_kind name m "gauge"

(* ------------------------------------------------------------------ *)
(* Buckets *)

let exponential_buckets ~lo ~factor ~count =
  if not (Float.is_finite lo && lo > 0.0) then
    invalid_arg "Metrics.exponential_buckets: lo must be positive and finite";
  if not (Float.is_finite factor && factor > 1.0) then
    invalid_arg "Metrics.exponential_buckets: factor must be > 1";
  if count < 1 then invalid_arg "Metrics.exponential_buckets: count < 1";
  Array.init count (fun i -> lo *. (factor ** float_of_int i))

let default_buckets = exponential_buckets ~lo:1e-6 ~factor:2.5 ~count:16

let check_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics.histogram: empty bucket bounds";
  for i = 0 to n - 1 do
    if not (Float.is_finite bounds.(i)) then
      invalid_arg "Metrics.histogram: bucket bounds must be finite";
    if i > 0 && bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
  done

let make_histogram ~buckets ~retain_samples id =
  check_bounds buckets;
  {
    h_ident = id;
    h_lock = Mutex.create ();
    bounds = Array.copy buckets;
    counts = Array.make (Array.length buckets + 1) 0;
    h_count = 0;
    h_sum = 0.0;
    samples = (if retain_samples then Some (Array.make 64 0.0) else None);
    n_samples = 0;
    h_exemplars = None;
  }

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets)
    ?(retain_samples = false) name =
  match
    register ~help ~name ~labels (fun id ->
        H (make_histogram ~buckets ~retain_samples id))
  with
  | H h -> h
  | m -> wrong_kind name m "histogram"

let private_histogram ?(buckets = default_buckets) ?(retain_samples = false) ()
    =
  make_histogram ~buckets ~retain_samples ("", [])

(* ------------------------------------------------------------------ *)
(* Recording *)

let incr ?(by = 1) c =
  if Atomic.get switch then begin
    if by < 0 then invalid_arg "Metrics.incr: negative increment";
    ignore (Atomic.fetch_and_add c.cell by)
  end

let gauge_set g x =
  if Atomic.get switch then begin
    Mutex.lock g.g_lock;
    g.g_value <- x;
    Mutex.unlock g.g_lock
  end

let gauge_add g x =
  if Atomic.get switch then begin
    Mutex.lock g.g_lock;
    g.g_value <- g.g_value +. x;
    Mutex.unlock g.g_lock
  end

(* Index of the first bound >= x, i.e. the bucket x falls into; the
   overflow bucket (length bounds) when x exceeds every bound. The
   annotation matters: left polymorphic, every read boxed a float and
   every comparison was a polymorphic compare. *)
let bucket_index (bounds : float array) (x : float) =
  let n = Array.length bounds in
  if x <= bounds.(0) then 0
  else if x > bounds.(n - 1) then n
  else begin
    (* Invariant: bounds.(lo) < x <= bounds.(hi). *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !hi - !lo > 1 do
      let mid = (!lo + !hi) / 2 in
      if x <= bounds.(mid) then hi := mid else lo := mid
    done;
    !hi
  end

(* Private histograms (empty identity) ignore the kill switch: they are
   measurement state owned by their creator, not process instrumentation,
   and must keep recording when the switch turns instrumentation off. The
   check costs nothing when the switch is on (short-circuit). *)
let observe h x =
  if Atomic.get switch || fst h.h_ident = "" then begin
    Mutex.lock h.h_lock;
    let i = bucket_index h.bounds x in
    h.counts.(i) <- h.counts.(i) + 1;
    h.h_count <- h.h_count + 1;
    h.h_sum <- h.h_sum +. x;
    (match h.samples with
    | None -> ()
    | Some buf ->
        let buf =
          if h.n_samples < Array.length buf then buf
          else begin
            let fresh = Array.make (2 * Array.length buf) 0.0 in
            Array.blit buf 0 fresh 0 h.n_samples;
            h.samples <- Some fresh;
            fresh
          end
        in
        buf.(h.n_samples) <- x;
        h.n_samples <- h.n_samples + 1);
    (* Registry histograms attach the ambient request context's trace id
       (if any) as an OpenMetrics exemplar — last writer per bucket wins,
       which is the conventional "most recent exemplar" policy. Private
       histograms (empty identity) are measurement state and take none. *)
    (if fst h.h_ident <> "" then
       match Ctx.current () with
       | None | Some { Ctx.span = None; _ } -> ()
       | Some { Ctx.span = Some { Ctx.trace_id; _ }; _ } ->
           let arr =
             match h.h_exemplars with
             | Some a -> a
             | None ->
                 let a = Array.make (Array.length h.bounds + 1) None in
                 h.h_exemplars <- Some a;
                 a
           in
           arr.(i) <-
             Some
               { e_value = x; e_trace = trace_id; e_ts = Unix.gettimeofday () });
    Mutex.unlock h.h_lock
  end

(* ------------------------------------------------------------------ *)
(* Reading *)

let counter_value c = Atomic.get c.cell

let gauge_value g =
  Mutex.lock g.g_lock;
  let v = g.g_value in
  Mutex.unlock g.g_lock;
  v

let locked_h h f =
  Mutex.lock h.h_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock h.h_lock) f

let histogram_count h = locked_h h (fun () -> h.h_count)
let histogram_sum h = locked_h h (fun () -> h.h_sum)

let quantile h q =
  if not (0.0 <= q && q <= 1.0) then
    invalid_arg "Metrics.quantile: q outside [0, 1]";
  locked_h h (fun () ->
      if h.h_count = 0 then Float.nan
      else begin
        let target = max 1 (int_of_float (Float.ceil (q *. float_of_int h.h_count))) in
        let n = Array.length h.bounds in
        let rec find i cum_before =
          if i > n then h.bounds.(n - 1) (* unreachable: counts sum to h_count *)
          else
            let c = h.counts.(i) in
            if cum_before + c >= target then
              if i = n then
                (* Overflow bucket: no finite upper edge; clamp to the
                   largest bound (documented). *)
                h.bounds.(n - 1)
              else begin
                let hi = h.bounds.(i) in
                let lo = if i = 0 then Float.min 0.0 hi else h.bounds.(i - 1) in
                lo
                +. ((hi -. lo) *. float_of_int (target - cum_before)
                   /. float_of_int c)
              end
            else find (i + 1) (cum_before + c)
        in
        find 0 0
      end)

let exact_quantile h q =
  if not (0.0 <= q && q <= 1.0) then
    invalid_arg "Metrics.exact_quantile: q outside [0, 1]";
  locked_h h (fun () ->
      match h.samples with
      | None ->
          invalid_arg
            "Metrics.exact_quantile: histogram does not retain samples"
      | Some buf ->
          if h.n_samples = 0 then Float.nan
          else
            Rvu_numerics.Stats.percentile (100.0 *. q)
              (Array.to_list (Array.sub buf 0 h.n_samples)))

let exemplars h =
  locked_h h (fun () ->
      match h.h_exemplars with
      | None -> []
      | Some arr ->
          Array.to_list arr
          |> List.filter_map
               (Option.map (fun e -> (e.e_value, e.e_trace, e.e_ts))))

(* ------------------------------------------------------------------ *)
(* Exposition *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of { buckets : (float * int) list; count : int; sum : float }

type sample = {
  name : string;
  help : string;
  labels : (string * string) list;
  value : value;
}

let sample_of { help; metric } =
  match metric with
  | C c ->
      let name, labels = c.c_ident in
      { name; help; labels; value = Counter (counter_value c) }
  | G g ->
      let name, labels = g.g_ident in
      { name; help; labels; value = Gauge (gauge_value g) }
  | H h ->
      let name, labels = h.h_ident in
      locked_h h (fun () ->
          let cum = ref 0 in
          let buckets =
            List.init (Array.length h.bounds) (fun i ->
                cum := !cum + h.counts.(i);
                (h.bounds.(i), !cum))
          in
          {
            name;
            help;
            labels;
            value = Histogram { buckets; count = h.h_count; sum = h.h_sum };
          })

let snapshot () =
  Mutex.lock registry_lock;
  let regs = Hashtbl.fold (fun _ r acc -> r :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort
    (fun a b ->
      match String.compare a.name b.name with
      | 0 -> compare a.labels b.labels
      | c -> c)
    (List.map sample_of regs)

(* Shortest-round-trip float rendering, borrowed from the JSON printer so
   Prometheus and JSON exposition print identical numbers. *)
let float_str x = Wire.print (Wire.Float x)

(* The exposition endpoint is scraped, so each line is written with
   [Printf.bprintf] straight into the buffer — no intermediate strings.
   [%a] with [bprint_labels] keeps the label block allocation-free too. *)
let bprint_labels b labels =
  match labels with
  | [] -> ()
  | _ ->
      Buffer.add_char b '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char b ',';
          Printf.bprintf b "%s=%S" k v)
        labels;
      Buffer.add_char b '}'

let expose () =
  let b = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun s ->
      let kind =
        match s.value with
        | Counter _ -> "counter"
        | Gauge _ -> "gauge"
        | Histogram _ -> "histogram"
      in
      if not (Hashtbl.mem seen_header s.name) then begin
        Hashtbl.add seen_header s.name ();
        if s.help <> "" then Printf.bprintf b "# HELP %s %s\n" s.name s.help;
        Printf.bprintf b "# TYPE %s %s\n" s.name kind
      end;
      match s.value with
      | Counter v -> Printf.bprintf b "%s%a %d\n" s.name bprint_labels s.labels v
      | Gauge v ->
          Printf.bprintf b "%s%a %s\n" s.name bprint_labels s.labels
            (float_str v)
      | Histogram { buckets; count; sum } ->
          List.iter
            (fun (le, cum) ->
              Printf.bprintf b "%s_bucket%a %d\n" s.name bprint_labels
                (s.labels @ [ ("le", float_str le) ])
                cum)
            buckets;
          Printf.bprintf b "%s_bucket%a %d\n" s.name bprint_labels
            (s.labels @ [ ("le", "+Inf") ])
            count;
          Printf.bprintf b "%s_sum%a %s\n" s.name bprint_labels s.labels
            (float_str sum);
          Printf.bprintf b "%s_count%a %d\n" s.name bprint_labels s.labels count)
    (snapshot ());
  Buffer.contents b

(* OpenMetrics-flavoured exposition: the Prometheus text above plus
   exemplar annotations on histogram bucket lines and the mandatory
   [# EOF] terminator. Counter series keep their registry spelling
   (already [_total]-suffixed), so this is pragmatic OpenMetrics — enough
   for exemplar-aware scrapers — not a conformance-complete encoder. *)
let expose_openmetrics () =
  let b = Buffer.create 1024 in
  let regs =
    Mutex.lock registry_lock;
    let l = Hashtbl.fold (fun _ r acc -> r :: acc) registry [] in
    Mutex.unlock registry_lock;
    let id r =
      match r.metric with
      | C c -> c.c_ident
      | G g -> g.g_ident
      | H h -> h.h_ident
    in
    List.sort (fun a b -> compare (id a) (id b)) l
  in
  let seen_header = Hashtbl.create 16 in
  let header name help kind =
    if not (Hashtbl.mem seen_header name) then begin
      Hashtbl.add seen_header name ();
      if help <> "" then Printf.bprintf b "# HELP %s %s\n" name help;
      Printf.bprintf b "# TYPE %s %s\n" name kind
    end
  in
  let bprint_exemplar = function
    | None -> ()
    | Some e ->
        Printf.bprintf b " # {trace_id=%S} %s %s" e.e_trace
          (float_str e.e_value) (float_str e.e_ts)
  in
  List.iter
    (fun { help; metric } ->
      match metric with
      | C c ->
          let name, labels = c.c_ident in
          header name help "counter";
          Printf.bprintf b "%s%a %d\n" name bprint_labels labels
            (counter_value c)
      | G g ->
          let name, labels = g.g_ident in
          header name help "gauge";
          Printf.bprintf b "%s%a %s\n" name bprint_labels labels
            (float_str (gauge_value g))
      | H h ->
          let name, labels = h.h_ident in
          header name help "histogram";
          locked_h h (fun () ->
              let ex i =
                match h.h_exemplars with None -> None | Some a -> a.(i)
              in
              let cum = ref 0 in
              Array.iteri
                (fun i le ->
                  cum := !cum + h.counts.(i);
                  Printf.bprintf b "%s_bucket%a %d" name bprint_labels
                    (labels @ [ ("le", float_str le) ])
                    !cum;
                  bprint_exemplar (ex i);
                  Buffer.add_char b '\n')
                h.bounds;
              Printf.bprintf b "%s_bucket%a %d" name bprint_labels
                (labels @ [ ("le", "+Inf") ])
                h.h_count;
              bprint_exemplar (ex (Array.length h.bounds));
              Buffer.add_char b '\n';
              Printf.bprintf b "%s_sum%a %s\n" name bprint_labels labels
                (float_str h.h_sum);
              Printf.bprintf b "%s_count%a %d\n" name bprint_labels labels
                h.h_count))
    regs;
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

let json () =
  let labels_json labels =
    Wire.Obj (List.map (fun (k, v) -> (k, Wire.String v)) labels)
  in
  let one s =
    let kind, fields =
      match s.value with
      | Counter v -> ("counter", [ ("value", Wire.Int v) ])
      | Gauge v -> ("gauge", [ ("value", Wire.Float v) ])
      | Histogram { buckets; count; sum } ->
          ( "histogram",
            [
              ( "buckets",
                Wire.List
                  (List.map
                     (fun (le, cum) ->
                       Wire.Obj
                         [
                           ("le", Wire.Float le); ("cumulative", Wire.Int cum);
                         ])
                     buckets) );
              ("count", Wire.Int count);
              ("sum", Wire.Float sum);
            ] )
    in
    Wire.Obj
      ([
         ("name", Wire.String s.name);
         ("kind", Wire.String kind);
         ("labels", labels_json s.labels);
       ]
      @ (if s.help = "" then [] else [ ("help", Wire.String s.help) ])
      @ fields)
  in
  Wire.Obj [ ("metrics", Wire.List (List.map one (snapshot ()))) ]
