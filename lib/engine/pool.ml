type t = {
  n_domains : int;
  submit : Mutex.t;
      (* Serializes whole [run] invocations: concurrent server sessions
         all submit batches to the one shared pool, and the single
         [job] slot + generation counter below assume one run at a
         time.  Held for the full duration of a run — submissions
         queue; the sessions' socket I/O stays concurrent. *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  work_done : Condition.t;
  mutable job : (unit -> unit) option;
      (* The current job body.  It pulls chunks from the job's own
         atomic cursor until the queue is dry, and never raises (task
         exceptions are recorded inside the closure). *)
  mutable generation : int;
  mutable running : int; (* workers currently inside the job body *)
  mutable stop : bool;
  mutable workers : unit Domain.t list;
}

let recommended_domains () = Domain.recommended_domain_count ()

(* Workers block between runs and wake on a generation bump.  A worker
   that oversleeps a whole run is harmless: the job body it would pick
   up has an exhausted cursor, and once [job] is cleared the wait
   condition holds it until the next generation. *)
let worker_loop t =
  (* Monitors and sanitizer counters are domain-local, so each worker
     domain arms its own sanitizer (no-op unless dev-checked/RC_CHECKED;
     see Rc_check.Sanitize). *)
  ignore (Rc_check.Sanitize.install_if_enabled ());
  let seen = ref 0 in
  (* Under [t.mutex]: the next job body this worker has not run yet, or
     [None] once the pool stops. *)
  let rec next_job () =
    if t.stop then None
    else
      match t.job with
      | Some body when t.generation <> !seen -> Some body
      | Some _ | None ->
          Condition.wait t.work_ready t.mutex;
          next_job ()
  in
  let rec loop () =
    Mutex.lock t.mutex;
    match next_job () with
    | None -> Mutex.unlock t.mutex
    | Some body ->
        seen := t.generation;
        t.running <- t.running + 1;
        Mutex.unlock t.mutex;
        body ();
        (* Publish this domain's audit tallies before the join below is
           observable: once [run] sees [running = 0], every worker's
           counters are in the process-wide totals. *)
        Rc_check.Sanitize.flush ();
        Mutex.lock t.mutex;
        t.running <- t.running - 1;
        if t.running = 0 then Condition.broadcast t.work_done;
        Mutex.unlock t.mutex;
        loop ()
  in
  loop ()

let create ~domains =
  (* The caller's domain participates in every run, so arm its
     (domain-local) sanitizer too — same contract as the workers. *)
  ignore (Rc_check.Sanitize.install_if_enabled ());
  let n_domains = max 1 domains in
  let t =
    {
      n_domains;
      submit = Mutex.create ();
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      work_done = Condition.create ();
      job = None;
      generation = 0;
      running = 0;
      stop = false;
      workers = [];
    }
  in
  t.workers <-
    List.init (n_domains - 1) (fun _ -> Domain.spawn (fun () -> worker_loop t));
  t

let domains t = t.n_domains

let run_locked ?chunk t ~tasks f =
  begin
    let chunk = match chunk with Some c -> max 1 c | None -> 1 in
    let results = Array.make tasks None in
    let next = Atomic.make 0 in
    (* Lowest-indexed failure among the tasks that ran; once set, no new
       chunks are claimed (in-flight chunks finish). *)
    let err = ref None in
    let err_mutex = Mutex.create () in
    let record i e bt =
      Mutex.lock err_mutex;
      (match (!err, e) with
      | Some (j, _, _), _ when j <= i -> ()
      | Some _, Rc_core.Cancel.Stopped ->
          (* A task unwound through its cancel probe after another task
             already failed: a casualty of the abort, not a cause —
             keep the real error. *)
          ()
      | _ -> err := Some (i, e, bt));
      Mutex.unlock err_mutex
    in
    let aborted = Atomic.make false in
    let body () =
      let continue = ref true in
      while !continue do
        let i0 = Atomic.fetch_and_add next chunk in
        if i0 >= tasks || Atomic.get aborted then continue := false
        else
          for i = i0 to min (i0 + chunk) tasks - 1 do
            (* The ambient probe lets long solver runs (exact searches,
               portfolio races) observe the abort of a sibling task and
               cancel instead of running to completion. *)
            match
              Rc_core.Cancel.with_probe (fun () -> Atomic.get aborted)
                (fun () -> f i)
            with
            | v -> results.(i) <- Some v
            | exception e ->
                record i e (Printexc.get_raw_backtrace ());
                Atomic.set aborted true
          done
      done
    in
    Mutex.lock t.mutex;
    if t.stop then begin
      Mutex.unlock t.mutex;
      invalid_arg "Pool.run: pool is shut down"
    end;
    t.job <- Some body;
    t.generation <- t.generation + 1;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    (* The caller's domain is one of the pool's [n_domains]. *)
    body ();
    Rc_check.Sanitize.flush ();
    Mutex.lock t.mutex;
    while t.running > 0 do
      Condition.wait t.work_done t.mutex
    done;
    t.job <- None;
    Mutex.unlock t.mutex;
    match !err with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None ->
        Array.map
          (function
            | Some v -> v
            | None ->
                invalid_arg
                  "Pool.run: a task slot is empty although no task failed")
          results
  end

let run ?chunk t ~tasks f =
  if tasks < 0 then invalid_arg "Pool.run: negative task count";
  if tasks = 0 then [||]
  else begin
    (* Concurrent callers (server sessions sharing one pool) queue
       here; inside, the single-job machinery runs unchanged. *)
    Mutex.lock t.submit;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock t.submit)
      (fun () -> run_locked ?chunk t ~tasks f)
  end

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~domains f =
  let t = create ~domains in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
