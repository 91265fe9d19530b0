(* The processes under test: spawn, wait for the listening event, read
   their kernel accounting, and make sure none outlives the run. *)

type t = {
  pid : int;
  argv : string array;
  err : in_channel;  (** the process's stderr, read for the listening line *)
  spawned_at : float;  (** monotonic seconds *)
}

let now = Rvu_obs.Clock.now_s

(* [n] consecutive TCP ports that are free right now. The base is drawn
   from the pid so concurrent runs on one host rarely probe the same
   range; the ports are released before the server binds them. *)
let free_ports n =
  let try_bind port =
    let s = Unix.socket ~cloexec:true Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt s Unix.SO_REUSEADDR true;
    match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
    | () -> Some s
    | exception Unix.Unix_error _ ->
        Unix.close s;
        None
  in
  let rec search base tries =
    if tries = 0 then failwith "no free port range";
    let socks = List.init n (fun i -> try_bind (base + i)) in
    List.iter (Option.iter Unix.close) socks;
    if List.for_all Option.is_some socks then base
    else search (20000 + ((base - 20000 + 997) mod 30000)) (tries - 1)
  in
  search (20000 + (Unix.getpid () * 37 mod 30000)) 64

(* Block on the process's stderr until it announces its socket: set-up
   ends on this event, never on a retry timer. *)
let await_listening p =
  let rec go () =
    match input_line p.err with
    | line ->
        let needle = "listening on" in
        let n = String.length needle and m = String.length line in
        let rec has i = i + n <= m && (String.sub line i n = needle || has (i + 1)) in
        if not (has 0) then go ()
    | exception End_of_file ->
        failwith
          (Printf.sprintf "%s exited before listening" (String.concat " " (Array.to_list p.argv)))
  in
  go ()

(* ------------------------------------------------------------------ *)
(* /proc readings for processes this run started *)

let read_file path =
  match open_in path with
  | ic ->
      let b = Buffer.create 1024 in
      (try
         while true do
           Buffer.add_channel b ic 1
         done
       with End_of_file -> ());
      close_in ic;
      Some (Buffer.contents b)
  | exception Sys_error _ -> None

(* Fields of /proc/<pid>/stat after the parenthesised command name:
   index 0 is the state, 1 the ppid, 11/12 utime/stime, 19 starttime. *)
let stat_fields pid =
  match read_file (Printf.sprintf "/proc/%d/stat" pid) with
  | None -> None
  | Some s -> (
      match String.rindex_opt s ')' with
      | None -> None
      | Some i ->
          Some
            (Array.of_list
               (String.split_on_char ' '
                  (String.trim (String.sub s (i + 2) (String.length s - i - 2))))))

let start_time pid =
  match stat_fields pid with Some f -> Some f.(19) | None -> None

(* Every process this run started, with its start time, so a recycled
   pid is never mistaken for one of ours. *)
let started : (int * string option) list ref = ref []

(* A process counts as alive unless it is gone, a zombie, or a different
   process under a recycled pid. *)
let alive pid =
  match stat_fields pid with
  | None -> false
  | Some f ->
      f.(0) <> "Z" && f.(0) <> "X"
      && (match List.assoc_opt pid !started with
         | Some (Some t) -> f.(19) = t
         | _ -> true)

let track pid = started := (pid, start_time pid) :: !started

let spawn argv =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR; Unix.O_CLOEXEC ] 0 in
  let spawned_at = now () in
  let pid = Unix.create_process argv.(0) argv null null w in
  track pid;
  Unix.close w;
  Unix.close null;
  { pid; argv; err = Unix.in_channel_of_descr r; spawned_at }

(* The live children of [pid] (the router's workers), tracked like the
   processes spawned here. *)
let adopt_children pid =
  let kids =
    Sys.readdir "/proc"
    |> Array.to_list
    |> List.filter_map (fun d ->
           match int_of_string_opt d with
           | Some c when c <> pid -> (
               match stat_fields c with
               | Some f when f.(1) = string_of_int pid && f.(0) <> "Z" -> Some c
               | _ -> None)
           | _ -> None)
  in
  List.iter track kids;
  kids

let clk_tck = 100.0

(* CPU seconds (user + system) the process has used so far. *)
let cpu_s pid =
  match stat_fields pid with
  | Some f -> (float_of_string f.(11) +. float_of_string f.(12)) /. clk_tck
  | None -> 0.0

(* Peak resident set (VmHWM) in MiB. *)
let peak_rss_mb pid =
  match read_file (Printf.sprintf "/proc/%d/status" pid) with
  | None -> 0.0
  | Some s ->
      List.fold_left
        (fun acc l ->
          match String.split_on_char ':' l with
          | [ "VmHWM"; v ] -> (
              match String.split_on_char ' ' (String.trim v) with
              | kb :: _ -> float_of_string kb /. 1024.0
              | [] -> acc)
          | _ -> acc)
        0.0 (String.split_on_char '\n' s)

(* ------------------------------------------------------------------ *)
(* Teardown *)

(* Wait for our child to exit on its own (the client closed its only
   connection), up to [timeout_s]; kill it past that. Returns whether it
   exited cleanly in time. [~timeout_s:0.0] kills at once. *)
let reap ?(timeout_s = 20.0) p =
  let deadline = now () +. timeout_s in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
        if now () > deadline then begin
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid);
          false
        end
        else begin
          Unix.sleepf 0.005;
          wait ()
        end
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait ()
  in
  let ok = wait () in
  close_in_noerr p.err;
  ok

(* Processes that should have ended with their parent: kill any survivor
   and report how many there were. *)
let kill_survivors pids =
  let survivors = List.filter alive pids in
  List.iter
    (fun pid -> try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ())
    survivors;
  let deadline = now () +. 5.0 in
  while List.exists alive survivors && now () < deadline do
    Unix.sleepf 0.01
  done;
  List.length survivors

(* However the run ends, no process it started outlives it: a SIGTERM or
   SIGINT exits through the same at_exit cleanup. *)
let () =
  at_exit (fun () ->
      let pids = List.map fst !started in
      if List.exists alive pids then ignore (kill_survivors pids));
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 2)))
    [ Sys.sigterm; Sys.sigint ]
