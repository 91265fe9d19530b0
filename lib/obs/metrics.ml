type counter = { c_ident : string * (string * string) list; cell : int Atomic.t }

type gauge = {
  g_ident : string * (string * string) list;
  g_lock : Mutex.t;
  mutable g_value : float;
}

type histogram = {
  h_ident : string * (string * string) list;
  h_lock : Mutex.t;
  bounds : float array; (* finite upper bounds, strictly increasing *)
  counts : int array; (* length bounds + 1; last slot is the +Inf bucket *)
  mutable h_count : int;
  mutable h_sum : float;
  mutable h_exemplars : (float * string * float) option array option;
      (* length bounds + 1, allocated on the first exemplar; slot i holds
         the latest (value, trace id, unix time) that landed in bucket i *)
}

type metric = C of counter | G of gauge | H of histogram

(* The recording kill switch (see the mli). A single atomic bool read per
   record keeps disabled-mode cost to one branch. *)
let switch = Atomic.make true
let set_enabled b = Atomic.set switch b

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

let default_buckets = Array.init 16 (fun i -> 1e-6 *. (2.5 ** float_of_int i))

let check_bounds bounds =
  let n = Array.length bounds in
  if n = 0 then invalid_arg "Metrics.histogram: empty bucket bounds";
  for i = 0 to n - 1 do
    if not (Float.is_finite bounds.(i)) then
      invalid_arg "Metrics.histogram: bucket bounds must be finite";
    if i > 0 && bounds.(i) <= bounds.(i - 1) then
      invalid_arg "Metrics.histogram: bucket bounds must be strictly increasing"
  done

let make_histogram ~buckets id =
  check_bounds buckets;
  {
    h_ident = id;
    h_lock = Mutex.create ();
    bounds = Array.copy buckets;
    counts = Array.make (Array.length buckets + 1) 0;
    h_count = 0;
    h_sum = 0.0;
    h_exemplars = None;
  }

let histogram ?(help = "") ?(labels = []) ?(buckets = default_buckets) name =
  match
    register ~help ~name ~labels (fun id -> H (make_histogram ~buckets id))
  with
  | H h -> h
  | m -> wrong_kind name m "histogram"

let private_histogram ?(buckets = default_buckets) () =
  make_histogram ~buckets ("", [])

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
           arr.(i) <- Some (x, trace_id, Unix.gettimeofday ()));
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

let exemplars h =
  locked_h h (fun () ->
      match h.h_exemplars with
      | None -> []
      | Some arr -> List.filter_map Fun.id (Array.to_list arr))

(* ------------------------------------------------------------------ *)
(* Exposition *)

type value =
  | Counter of int
  | Gauge of float
  | Histogram of {
      buckets : (float * int) list;
      count : int;
      sum : float;
      exemplars : (float * string * float) option list;
    }

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
          let exemplars =
            match h.h_exemplars with None -> [] | Some a -> Array.to_list a
          in
          {
            name;
            help;
            labels;
            value =
              Histogram
                { buckets; count = h.h_count; sum = h.h_sum; exemplars };
          })

let by_ident a b =
  match String.compare a.name b.name with
  | 0 -> compare a.labels b.labels
  | c -> c

let snapshot () =
  Mutex.lock registry_lock;
  let regs = Hashtbl.fold (fun _ r acc -> r :: acc) registry [] in
  Mutex.unlock registry_lock;
  List.sort by_ident (List.map sample_of regs)

(* The sum of two cumulative bucket lists is the sum of their step
   functions, read at every bound of either grid: [ca]/[cb] carry each
   side's count at the last bound already passed. *)
let rec add_cumulative ca a cb b =
  match (a, b) with
  | [], [] -> []
  | (la, xa) :: ta, (lb, _) :: _ when la < lb ->
      (la, xa + cb) :: add_cumulative xa ta cb b
  | (la, _) :: _, (lb, xb) :: tb when lb < la ->
      (lb, ca + xb) :: add_cumulative ca a xb tb
  | (la, xa) :: ta, (_, xb) :: tb -> (la, xa + xb) :: add_cumulative xa ta xb tb
  | (la, xa) :: ta, [] -> (la, xa + cb) :: add_cumulative xa ta cb []
  | [], (lb, xb) :: tb -> (lb, ca + xb) :: add_cumulative ca [] xb tb

let add a b =
  match (a, b) with
  | Counter x, Counter y -> Some (Counter (x + y))
  | Gauge x, Gauge y -> Some (Gauge (x +. y))
  | Histogram h, Histogram h' ->
      Some
        (Histogram
           {
             buckets = add_cumulative 0 h.buckets 0 h'.buckets;
             count = h.count + h'.count;
             sum = h.sum +. h'.sum;
             exemplars = [];
           })
  | _ -> None

let merge lists =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let id = (s.name, s.labels) in
      match (Hashtbl.find_opt tbl id, s.value) with
      | None, Histogram h ->
          let value = Histogram { h with exemplars = [] } in
          Hashtbl.add tbl id { s with value }
      | None, _ -> Hashtbl.add tbl id s
      | Some first, value ->
          Option.iter
            (fun value -> Hashtbl.replace tbl id { first with value })
            (add first.value value))
    (List.concat lists);
  List.sort by_ident (Hashtbl.fold (fun _ s acc -> s :: acc) tbl [])

let kind_of = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

let to_json samples =
  let one s =
    let fields =
      match s.value with
      | Counter v -> [ ("value", Wire.Int v) ]
      | Gauge v -> [ ("value", Wire.Float v) ]
      | Histogram { buckets; count; sum; exemplars = _ } ->
          [
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
    in
    Wire.Obj
      ([
         ("name", Wire.String s.name);
         ("kind", Wire.String (kind_of s.value));
         ( "labels",
           Wire.Obj (List.map (fun (k, v) -> (k, Wire.String v)) s.labels) );
       ]
      @ (if s.help = "" then [] else [ ("help", Wire.String s.help) ])
      @ fields)
  in
  Wire.Obj [ ("metrics", Wire.List (List.map one samples)) ]

let of_json doc =
  let str = function Some (Wire.String s) -> Some s | _ -> None in
  let int = function Some (Wire.Int n) -> Some n | _ -> None in
  let num = function
    | Some (Wire.Int n) -> Some (float_of_int n)
    | Some (Wire.Float f) when Float.is_finite f -> Some f
    | _ -> None
  in
  (* Only a strictly ascending grid of finite bounds is a histogram's;
     a bucket that breaks it is dropped, leaving a coarser grid. *)
  let rec ascending prev = function
    | Wire.Obj _ as o :: rest -> (
        match (num (Wire.member "le" o), int (Wire.member "cumulative" o)) with
        | Some le, Some cum when le > prev -> (le, cum) :: ascending le rest
        | _ -> ascending prev rest)
    | _ :: rest -> ascending prev rest
    | [] -> []
  in
  let value w = function
    | "counter" -> Option.map (fun v -> Counter v) (int (Wire.member "value" w))
    | "gauge" -> Option.map (fun v -> Gauge v) (num (Wire.member "value" w))
    | "histogram" ->
        let buckets =
          match Wire.member "buckets" w with
          | Some (Wire.List l) -> ascending Float.neg_infinity l
          | _ -> []
        in
        let count = Option.value ~default:0 (int (Wire.member "count" w)) in
        let sum = Option.value ~default:0.0 (num (Wire.member "sum" w)) in
        Some (Histogram { buckets; count; sum; exemplars = [] })
    | _ -> None
  in
  let sample w =
    match (str (Wire.member "name" w), str (Wire.member "kind" w)) with
    | Some name, Some kind ->
        let labels =
          match Wire.member "labels" w with
          | Some (Wire.Obj fields) ->
              List.filter_map
                (function k, Wire.String v -> Some (k, v) | _ -> None)
                fields
          | _ -> []
        in
        let help = Option.value ~default:"" (str (Wire.member "help" w)) in
        Option.map (fun value -> { name; help; labels; value }) (value w kind)
    | _ -> None
  in
  match Wire.member "metrics" doc with
  | Some (Wire.List l) -> List.filter_map sample l
  | _ -> []

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

(* The OpenMetrics flavour adds exemplar annotations to bucket lines and
   the mandatory [# EOF] terminator. Counter series keep their registry
   spelling (already [_total]-suffixed), so this is pragmatic OpenMetrics
   — enough for exemplar-aware scrapers — not a conformance-complete
   encoder. *)
let to_prometheus ?(openmetrics = false) samples =
  let b = Buffer.create 1024 in
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen_header s.name) then begin
        Hashtbl.add seen_header s.name ();
        if s.help <> "" then Printf.bprintf b "# HELP %s %s\n" s.name s.help;
        Printf.bprintf b "# TYPE %s %s\n" s.name (kind_of s.value)
      end;
      match s.value with
      | Counter v ->
          Printf.bprintf b "%s%a %d\n" s.name bprint_labels s.labels v
      | Gauge v ->
          Printf.bprintf b "%s%a %s\n" s.name bprint_labels s.labels
            (float_str v)
      | Histogram { buckets; count; sum; exemplars } ->
          (* Exemplars align with the bucket lines, [+Inf] last. *)
          let pending = ref (if openmetrics then exemplars else []) in
          let bucket le cum =
            Printf.bprintf b "%s_bucket%a %d" s.name bprint_labels
              (s.labels @ [ ("le", le) ])
              cum;
            (match !pending with
            | e :: rest ->
                pending := rest;
                Option.iter
                  (fun (v, trace, ts) ->
                    Printf.bprintf b " # {trace_id=%S} %s %s" trace
                      (float_str v) (float_str ts))
                  e
            | [] -> ());
            Buffer.add_char b '\n'
          in
          List.iter (fun (le, cum) -> bucket (float_str le) cum) buckets;
          bucket "+Inf" count;
          Printf.bprintf b "%s_sum%a %s\n" s.name bprint_labels s.labels
            (float_str sum);
          Printf.bprintf b "%s_count%a %d\n" s.name bprint_labels s.labels
            count)
    samples;
  if openmetrics then Buffer.add_string b "# EOF\n";
  Buffer.contents b

let expose () = to_prometheus (snapshot ())
let expose_openmetrics () = to_prometheus ~openmetrics:true (snapshot ())
let json () = to_json (snapshot ())
