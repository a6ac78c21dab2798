(* Child processes and the counters read about them from outside:
   CPU time from /proc/<pid>/stat, peak RSS from VmHWM, GC totals from
   the runtime's exit report (OCAMLRUNPARAM=v=0x400 on stderr).  Every
   child is reaped before the benchmark exits, on error paths too. *)

module Client = Rc_engine.Server.Client

let clk_tck = ref 100.
let now_s = Rc_core.Mclock.now_s
let read_file path = In_channel.with_open_bin path In_channel.input_all

(* utime + stime of all threads of [pid], in seconds. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let i = String.rindex s ')' in
  let f =
    Array.of_list
      (String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)))
  in
  (float_of_string f.(11) +. float_of_string f.(12)) /. !clk_tck

(* Peak resident set size (VmHWM) of [pid], in MiB. *)
let vm_hwm_mb pid =
  let s = read_file (Printf.sprintf "/proc/%d/status" pid) in
  let line =
    List.find
      (fun l -> String.starts_with ~prefix:"VmHWM:" l)
      (String.split_on_char '\n' s)
  in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | _ :: kb :: _ -> float_of_string (String.trim kb) /. 1024.
  | _ -> failwith ("unreadable VmHWM line: " ^ line)

(* (steal, total) jiffies of the host's CPUs so far, from /proc/stat:
   the share of time the hypervisor ran other guests. *)
let host_cpu () =
  match
    List.filter (( <> ) "")
      (String.split_on_char ' ' (List.hd (String.split_on_char '\n' (read_file "/proc/stat"))))
  with
  | "cpu" :: fields ->
      let f = Array.of_list (List.map float_of_string fields) in
      (f.(7), Array.fold_left ( +. ) 0. (Array.sub f 0 8))
  | _ -> (0., 0.)

let steal_share (s0, n0) (s1, n1) = if n1 > n0 then (s1 -. s0) /. (n1 -. n0) else 0.

(* Wait, at most [max_s] seconds, until a full second has passed in
   which the hypervisor stole under 2% of the host's CPU time.  Steal on
   a shared host comes in phases of tens of seconds and slows every
   timing together, so a run starts its set-up and timed phase in a
   quiet one when it can; the wait is printed and never timed. *)
let wait_quiet ~max_s =
  let t0 = now_s () in
  let rec go h0 quiet =
    if quiet >= 2 || now_s () -. t0 >= max_s then quiet >= 2
    else begin
      Unix.sleepf 0.5;
      let h1 = host_cpu () in
      go h1 (if steal_share h0 h1 < 0.02 then quiet + 1 else 0)
    end
  in
  let quiet = go (host_cpu ()) 0 in
  Printf.printf "host    waited %.1f s for a quiet host (%s)\n%!"
    (now_s () -. t0)
    (if quiet then "found" else "gave up")

let report_steal h0 =
  Printf.printf "host    steal %.1f%% of CPU time during the timed phases\n%!"
    (100. *. steal_share h0 (host_cpu ()))

(* [key: value] lines of an OCAMLRUNPARAM=v=0x400 exit report. *)
let gc_report path =
  List.filter_map
    (fun l ->
      match String.index_opt l ':' with
      | Some i -> (
          let v = String.trim (String.sub l (i + 1) (String.length l - i - 1)) in
          match float_of_string_opt v with
          | Some f -> Some (String.sub l 0 i, f)
          | None -> None)
      | None -> None)
    (String.split_on_char '\n' (read_file path))

(* ------------------------------------------------------------------ *)
(* Children                                                            *)
(* ------------------------------------------------------------------ *)

let live : int list ref = ref []

let reap ?(timeout = 30.) pid =
  let deadline = now_s () +. timeout in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now_s () < deadline ->
        Unix.sleepf 0.001;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let clean = wait () in
  live := List.filter (( <> ) pid) !live;
  clean

let () =
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
          try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
        !live)

let spawn prog args ~stdout_file ~stderr_file =
  let env =
    Array.append
      (Array.of_list
         (List.filter
            (fun e -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" e))
            (Array.to_list (Unix.environment ()))))
      [| "OCAMLRUNPARAM=v=0x400" |]
  in
  let open_out f =
    Unix.openfile f [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let out = open_out stdout_file and err = open_out stderr_file in
  let pid =
    Unix.create_process_env prog (Array.of_list (prog :: args)) env null out err
  in
  List.iter Unix.close [ null; out; err ];
  live := pid :: !live;
  pid

(* ------------------------------------------------------------------ *)
(* Server processes                                                    *)
(* ------------------------------------------------------------------ *)

type transport = Unix_socket | Tcp

type server = {
  pid : int;
  fd : Unix.file_descr;
  err_file : string;
  setup_s : float;  (** process start until the first PONG *)
}

exception Server_failed of string

let recv_timeout = 60.

let find_port out_file =
  (* "serving on HOST:PORT (...)", printed once the socket listens. *)
  let s = try read_file out_file with Sys_error _ -> "" in
  match String.index_opt s '\n' with
  | None -> None
  | Some eol -> (
      let line = String.sub s 0 eol in
      match String.split_on_char ' ' line with
      | "serving" :: "on" :: hp :: _ -> (
          match String.rindex_opt hp ':' with
          | Some i ->
              int_of_string_opt (String.sub hp (i + 1) (String.length hp - i - 1))
          | None -> None)
      | _ -> None)

(* Start [coalesce serve] with a 1-domain pool and wait until it answers
   PING.  Readiness is polled every 0.2 ms, so [setup_s] measures the
   server, not a retry step. *)
let start_server ~coalesce ~dir ~tag ~transport ~cache_entries =
  let out_file = Filename.concat dir (tag ^ ".out")
  and err_file = Filename.concat dir (tag ^ ".err") in
  let sock = Filename.concat dir (tag ^ ".sock") in
  let where =
    match transport with
    | Unix_socket -> [ "--socket"; sock ]
    | Tcp -> [ "--listen"; "127.0.0.1:0" ]
  in
  let t0 = now_s () in
  let pid =
    spawn coalesce
      ([ "serve" ] @ where
      @ [ "--domains"; "1"; "--cache-entries"; string_of_int cache_entries ])
      ~stdout_file:out_file ~stderr_file:err_file
  in
  let deadline = t0 +. 30. in
  let fail why =
    ignore (reap ~timeout:0. pid);
    raise (Server_failed (Printf.sprintf "%s: %s" tag why))
  in
  let rec connect () =
    if now_s () > deadline then fail "not ready after 30 s";
    (match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ -> ()
    | _ -> fail ("exited during start-up: " ^ read_file err_file));
    let attempt =
      match transport with
      | Unix_socket -> Some (Unix.PF_UNIX, Unix.ADDR_UNIX sock)
      | Tcp ->
          Option.map
            (fun port ->
              (Unix.PF_INET, Unix.ADDR_INET (Unix.inet_addr_loopback, port)))
            (find_port out_file)
    in
    let retry () =
      Unix.sleepf 0.0002;
      connect ()
    in
    match attempt with
    | None -> retry ()
    | Some (dom, addr) -> (
        let fd = Unix.socket dom Unix.SOCK_STREAM 0 in
        match Unix.connect fd addr with
        | () -> fd
        | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
          ->
            Unix.close fd;
            retry ())
  in
  let fd = connect () in
  if transport = Tcp then Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO recv_timeout;
  Client.send_ping fd;
  (match Client.recv fd with
  | Client.Resp Client.Pong -> ()
  | _ -> fail "no PONG");
  { pid; fd; err_file; setup_s = now_s () -. t0 }

(* Counters of the STATS frame, by key ([race_win NAME n] lines become
   [race_win.NAME]). *)
let stats srv =
  Client.send_stats srv.fd;
  match Client.recv srv.fd with
  | Client.Resp (Client.Stats text) ->
      List.filter_map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ k; v ] -> Option.map (fun v -> (k, v)) (int_of_string_opt v)
          | [ "race_win"; b; v ] ->
              Option.map (fun v -> ("race_win." ^ b, v)) (int_of_string_opt v)
          | _ -> None)
        (String.split_on_char '\n' text)
  | _ -> raise (Server_failed "no STATS answer")

let stat st key = Option.value ~default:0 (List.assoc_opt key st)
let delta st0 st1 key = stat st1 key - stat st0 key

(* SHUTDOWN, drain until BYE, reap; the GC exit report of a clean
   exit. *)
let stop srv =
  (try
     Client.send_shutdown srv.fd;
     let rec drain () =
       match Client.recv srv.fd with
       | Client.Resp Client.Bye | Client.Eof -> ()
       | Client.Resp _ -> drain ()
     in
     drain ()
   with Unix.Unix_error _ | Failure _ -> ());
  (try Unix.close srv.fd with Unix.Unix_error _ -> ());
  if reap srv.pid then gc_report srv.err_file else []
