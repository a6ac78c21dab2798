(* Spans recorded around calls into the repository's layers.  They stay
   in memory (one domain records; pool tasks hand their timings back
   through their results) and are written once, at the end of the
   traced run. *)

type span = {
  id : int;
  name : string;
  req : int;  (** request (or cell) id shared by its spans; -1 for none *)
  parent : int;  (** enclosing span id; -1 at top level *)
  t0 : int64;  (** monotonic ns *)
  t1 : int64;
  alloc_w : float;  (** minor words this domain allocated inside the span *)
}

let recorded : span list ref = ref []
let next_id = ref 0
let open_spans : int list ref = ref []
let now = Rc_core.Mclock.now_ns

let add ?(req = -1) ?(parent = -1) ?(alloc_w = 0.) name t0 t1 =
  let id = !next_id in
  incr next_id;
  recorded := { id; name; req; parent; t0; t1; alloc_w } :: !recorded;
  id

let with_span ?(req = -1) name f =
  let id = !next_id in
  incr next_id;
  let parent = match !open_spans with p :: _ -> p | [] -> -1 in
  open_spans := id :: !open_spans;
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let close () =
    let t1 = now () in
    let alloc_w = Gc.minor_words () -. w0 in
    open_spans := List.tl !open_spans;
    recorded := { id; name; req; parent; t0; t1; alloc_w } :: !recorded
  in
  match f () with
  | v ->
      close ();
      v
  | exception e ->
      close ();
      raise e

let dur_ns s = Int64.sub s.t1 s.t0
let dur_ms s = Int64.to_float (dur_ns s) /. 1e6
let spans () = List.rev !recorded
let named name = List.filter (fun s -> s.name = name) (spans ())
let ms name = Array.of_list (List.map dur_ms (named name))
let kw name = Array.of_list (List.map (fun s -> s.alloc_w /. 1e3) (named name))

(* Per request id, the summed duration of the spans named in [names]. *)
let per_req_ms names =
  let t = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.req >= 0 && List.mem s.name names then
        Hashtbl.replace t s.req
          (dur_ms s +. Option.value ~default:0. (Hashtbl.find_opt t s.req)))
    (spans ());
  t

(* The part of [s]'s interval its children cover: the union of their
   intervals, so children running in parallel on several domains are
   not counted twice. *)
let covered s children =
  let sorted =
    List.sort compare
      (List.filter
         (fun (a, b) -> a < b)
         (List.map (fun c -> (max c.t0 s.t0, min c.t1 s.t1)) children))
  in
  let total, last =
    List.fold_left
      (fun (total, last) (a, b) ->
        match last with
        | Some (la, lb) when a <= lb -> (total, Some (la, max lb b))
        | Some (la, lb) -> (Int64.add total (Int64.sub lb la), Some (a, b))
        | None -> (total, Some (a, b)))
      (0L, None) sorted
  in
  match last with
  | Some (la, lb) -> Int64.add total (Int64.sub lb la)
  | None -> total

(* One JSON object per line: name, start, end, parent, request id, self
   time (duration minus the part its children cover) and minor words. *)
let write path =
  let all = spans () in
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (s :: Option.value ~default:[] (Hashtbl.find_opt children s.parent)))
    all;
  Out_channel.with_open_bin path (fun oc ->
      List.iter
        (fun s ->
          let self =
            Int64.sub (dur_ns s)
              (covered s
                 (Option.value ~default:[] (Hashtbl.find_opt children s.id)))
          in
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"start_ns\":%Ld,\"end_ns\":%Ld,\"parent\":%d,\"req\":%d,\"self_ns\":%Ld,\"alloc_words\":%.0f}\n"
            s.id s.name s.t0 s.t1 s.parent s.req self s.alloc_w)
        all)
