module G = Rc_graph.Graph

type accum = {
  mutable k : int option;
  mutable graph : G.t;
  mutable affinities : ((int * int) * int) list;
}

let parse text =
  let acc = { k = None; graph = G.empty; affinities = [] } in
  let error lineno msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
  let int_of lineno s =
    match int_of_string_opt s with
    | Some i -> Ok i
    | None -> error lineno (Printf.sprintf "expected an integer, got %S" s)
  in
  let ( let* ) r f = match r with Ok x -> f x | Error _ as e -> e in
  let parse_line lineno line =
    let line =
      match String.index_opt line '#' with
      | Some i -> String.sub line 0 i
      | None -> line
    in
    match
      String.split_on_char ' ' line
      |> List.concat_map (String.split_on_char '\t')
      |> List.filter (fun s -> s <> "")
    with
    | [] -> Ok ()
    | "k" :: rest -> (
        match rest with
        | [ ks ] ->
            let* k = int_of lineno ks in
            if k <= 0 then error lineno "k must be positive"
            else if acc.k <> None then error lineno "duplicate k directive"
            else begin
              acc.k <- Some k;
              Ok ()
            end
        | _ -> error lineno "usage: k <int>")
    | "v" :: rest ->
        List.fold_left
          (fun r s ->
            let* () = r in
            let* v = int_of lineno s in
            acc.graph <- G.add_vertex acc.graph v;
            Ok ())
          (Ok ()) rest
    | [ "e"; us; vs ] ->
        let* u = int_of lineno us in
        let* v = int_of lineno vs in
        if u = v then error lineno "self-loop interference"
        else begin
          acc.graph <- G.add_edge acc.graph u v;
          Ok ()
        end
    | [ "a"; us; vs ] | [ "a"; us; vs; _ ] as toks -> (
        let* u = int_of lineno us in
        let* v = int_of lineno vs in
        let* w =
          match toks with
          | [ _; _; _; ws ] -> int_of lineno ws
          | _ -> Ok 1
        in
        if w < 0 then error lineno "affinity weight must be non-negative"
        else if u = v then error lineno "self-affinity"
        else begin
          acc.graph <- G.add_vertex (G.add_vertex acc.graph u) v;
          acc.affinities <- ((u, v), w) :: acc.affinities;
          Ok ()
        end)
    | d :: _ -> error lineno (Printf.sprintf "unknown directive %S" d)
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno = function
    | [] -> (
        match acc.k with
        | None -> Error "missing k directive"
        | Some k -> (
            try Ok (Rc_core.Problem.make ~graph:acc.graph
                      ~affinities:(List.rev acc.affinities) ~k)
            with Invalid_argument m -> Error m))
    | line :: rest -> (
        match parse_line lineno line with
        | Ok () -> go (lineno + 1) rest
        | Error _ as e -> e)
  in
  go 1 lines

let read_file path =
  match
    let ic = open_in path in
    Fun.protect
      ~finally:(fun () -> close_in ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | text -> parse text
  | exception Sys_error m -> Error m

let print (p : Rc_core.Problem.t) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "# register-coalescing instance\n";
  Buffer.add_string buf (Printf.sprintf "k %d\n" p.k);
  let isolated =
    List.filter (fun v -> G.degree p.graph v = 0) (G.vertices p.graph)
  in
  if isolated <> [] then begin
    Buffer.add_string buf "v";
    List.iter (fun v -> Buffer.add_string buf (Printf.sprintf " %d" v)) isolated;
    Buffer.add_char buf '\n'
  end;
  G.iter_edges
    (fun u v -> Buffer.add_string buf (Printf.sprintf "e %d %d\n" u v))
    p.graph;
  List.iter
    (fun (a : Rc_core.Problem.affinity) ->
      Buffer.add_string buf (Printf.sprintf "a %d %d %d\n" a.u a.v a.weight))
    p.affinities;
  Buffer.contents buf

let write_file path p =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (print p))

(* ------------------------------------------------------------------ *)
(* Binary format                                                       *)
(* ------------------------------------------------------------------ *)

(* Layout (all fields little-endian int32; see DESIGN.md "wire
   protocol" for the normative spec):

     bytes  0..3   magic "RCBI"
     bytes  4..7   version (currently 1)
     bytes  8..11  k
     bytes 12..15  nv  (vertex count)
     bytes 16..19  ne  (edge count)
     bytes 20..23  na  (affinity count)
     bytes 24..27  flags (must be 0)
     bytes 28..31  reserved (must be 0)
     then          nv int32  vertex ids, strictly increasing
     then          ne pairs  (i, j) of dense vertex-table indices,
                             i < j, strictly increasing lexicographic
     then          na triples (i, j, w), i < j, strictly increasing
                             lexicographic, w >= 0

   Edges and affinities are stored as *dense indices* into the vertex
   table, not raw vertex ids: a loader can stream them straight into a
   {!Rc_graph.Flat} kernel of capacity nv with no id translation, and
   the sortedness rules make the encoding canonical — byte-equal
   encodings iff equal problems — which is what lets the serve path
   key its answer cache on a hash of these bytes. *)

let binary_magic = "RCBI"
let binary_version = 1
let header_words = 8

type bin_error =
  | Bin_bad_magic
  | Bin_unsupported_version of int
  | Bin_bad_header of string
  | Bin_truncated of { expected : int; got : int }
  | Bin_malformed of string

let bin_error_to_string = function
  | Bin_bad_magic -> Printf.sprintf "bad magic (want %S)" binary_magic
  | Bin_unsupported_version v ->
      Printf.sprintf "unsupported binary version %d (want %d)" v binary_version
  | Bin_bad_header m -> Printf.sprintf "bad header: %s" m
  | Bin_truncated { expected; got } ->
      Printf.sprintf "truncated: expected %d bytes, got %d" expected got
  | Bin_malformed m -> Printf.sprintf "malformed body: %s" m

(* Where an encoding's 32-bit words live: inside a string from a byte
   offset on (a request payload, possibly in the middle of a larger
   read buffer).  Every read goes through [word], and a word read
   allocates nothing. *)
type words = { s : string; base : int }

let word src i = Int32.to_int (String.get_int32_le src.s (src.base + (4 * i)))

(* A validated instance whose sections still live in their backing
   store: iteration reads the words in place, no per-element boxing or
   copying. *)
type view = {
  vk : int;
  nv : int;
  ne : int;
  na : int;
  src : words;  (** the whole encoding, header included *)
}

let view_k v = v.vk
let view_counts v = (v.nv, v.ne, v.na)
let vertex_base = header_words
let edge_base v = header_words + v.nv
let affinity_base v = header_words + v.nv + (2 * v.ne)

let view_vertex v i = word v.src (vertex_base + i)

let iter_view_edges v f =
  let base = edge_base v in
  for e = 0 to v.ne - 1 do
    f
      (view_vertex v (word v.src (base + (2 * e))))
      (view_vertex v (word v.src (base + (2 * e) + 1)))
  done

let iter_view_affinities v f =
  let base = affinity_base v in
  for a = 0 to v.na - 1 do
    let at = base + (3 * a) in
    f
      (view_vertex v (word v.src at))
      (view_vertex v (word v.src (at + 1)))
      (word v.src (at + 2))
  done

let view_flat v =
  let f = Rc_graph.Flat.create v.nv in
  let base = edge_base v in
  for e = 0 to v.ne - 1 do
    (* Strict lexicographic sortedness (validated on load) means every
       edge arrives exactly once with i < j — the add_new_edge
       contract, so the bulk load skips membership probes entirely. *)
    Rc_graph.Flat.add_new_edge f
      (word v.src (base + (2 * e)))
      (word v.src (base + (2 * e) + 1))
  done;
  let labels = Array.init v.nv (fun i -> view_vertex v i) in
  (f, labels)

let view_problem v =
  (* The symmetric adjacency over dense indices in one unboxed buffer
     (row i's neighbours are [nbr.(start.(i)) .. nbr.(start.(i+1) - 1)]),
     handed to the row-at-a-time constructor, so only the current row
     is ever a list.  The dense-index pairs are already validated, so
     the rows are strictly increasing, symmetric and loop-free by
     construction. *)
  let n = v.nv and base = edge_base v in
  let start = Array.make (n + 1) 0 in
  for e = 0 to v.ne - 1 do
    let i = word v.src (base + (2 * e)) and j = word v.src (base + (2 * e) + 1) in
    start.(i + 1) <- start.(i + 1) + 1;
    start.(j + 1) <- start.(j + 1) + 1
  done;
  for i = 1 to n do
    start.(i) <- start.(i) + start.(i - 1)
  done;
  let fill = Array.sub start 0 n in
  let nbr = Array.make (2 * v.ne) 0 in
  for e = 0 to v.ne - 1 do
    let i = word v.src (base + (2 * e)) and j = word v.src (base + (2 * e) + 1) in
    nbr.(fill.(i)) <- j;
    fill.(i) <- fill.(i) + 1;
    nbr.(fill.(j)) <- i;
    fill.(j) <- fill.(j) + 1
  done;
  let rec rows i () =
    if i >= n then Seq.Nil
    else begin
      let ns = ref [] in
      for p = start.(i) to start.(i + 1) - 1 do
        ns := view_vertex v nbr.(p) :: !ns
      done;
      Seq.Cons ((view_vertex v i, !ns), rows (i + 1))
    end
  in
  let graph = G.of_rows (rows 0) in
  (* Validated affinities are strictly sorted index pairs (i < j) over a
     strictly increasing vertex table, with non-negative weights: as
     vertex-id records they are already in the order, and free of the
     self-pairs and duplicates, that [Problem.make]'s normalization
     would produce, so the list is built as it stands. *)
  let base = affinity_base v in
  let affinities = ref [] in
  for a = v.na - 1 downto 0 do
    let at = base + (3 * a) in
    affinities :=
      {
        Rc_core.Problem.u = view_vertex v (word v.src at);
        v = view_vertex v (word v.src (at + 1));
        weight = word v.src (at + 2);
      }
      :: !affinities
  done;
  { Rc_core.Problem.graph; affinities = !affinities; k = v.vk }

(* ---- encoding ---------------------------------------------------- *)

let fits_int32 x = x >= Int32.to_int Int32.min_int && x <= Int32.to_int Int32.max_int

let to_binary (p : Rc_core.Problem.t) =
  let vs = Array.of_list (G.vertices p.graph) in
  let nv = Array.length vs in
  let index = Hashtbl.create (2 * nv) in
  Array.iteri
    (fun i v ->
      if not (fits_int32 v) then
        invalid_arg
          (Printf.sprintf "Instance_io.to_binary: vertex %d exceeds int32" v);
      Hashtbl.replace index v i)
    vs;
  if not (fits_int32 p.k) then
    invalid_arg "Instance_io.to_binary: k exceeds int32";
  let ne = G.num_edges p.graph in
  let na = List.length p.affinities in
  let words = header_words + nv + (2 * ne) + (3 * na) in
  let buf = Bytes.create (4 * words) in
  let put w x = Bytes.set_int32_le buf (4 * w) (Int32.of_int x) in
  Bytes.blit_string binary_magic 0 buf 0 4;
  put 1 binary_version;
  put 2 p.k;
  put 3 nv;
  put 4 ne;
  put 5 na;
  put 6 0;
  put 7 0;
  Array.iteri (fun i v -> put (vertex_base + i) v) vs;
  (* [G.edges] yields each edge once as (u, v) with u < v, in strictly
     increasing lexicographic order (adjacency map in key order) — the
     canonical order the format requires, so no sort is needed.  The
     affinity list is normalized by [Problem.make] to the same order. *)
  let w = ref (header_words + nv) in
  G.iter_edges
    (fun u v ->
      put !w (Hashtbl.find index u);
      put (!w + 1) (Hashtbl.find index v);
      w := !w + 2)
    p.graph;
  List.iter
    (fun (a : Rc_core.Problem.affinity) ->
      if not (fits_int32 a.weight) then
        invalid_arg "Instance_io.to_binary: affinity weight exceeds int32";
      put !w (Hashtbl.find index a.u);
      put (!w + 1) (Hashtbl.find index a.v);
      put (!w + 2) a.weight;
      w := !w + 3)
    p.affinities;
  Bytes.unsafe_to_string buf

(* ---- validation -------------------------------------------------- *)

exception Reject of bin_error

let reject e = raise_notrace (Reject e)

(* "RCBI" read as one little-endian word. *)
let magic_word = 0x49424352

(* The one structural validator every decode path and the keying entry
   point share: header, counts against the [words] available, then the
   body, reporting the first violation.  The body checks are direct
   loops over the words — nothing is allocated per word, only the view
   or the error.  The strict-sortedness checks double as duplicate
   detection. *)
let validate src ~words =
  try
    if words < header_words then
      reject (Bin_truncated { expected = 4 * header_words; got = 4 * words });
    if word src 0 <> magic_word then reject Bin_bad_magic;
    if word src 1 <> binary_version then reject (Bin_unsupported_version (word src 1));
    if word src 6 <> 0 || word src 7 <> 0 then
      reject
        (Bin_bad_header (Printf.sprintf "non-zero flags %d/%d" (word src 6) (word src 7)));
    let vk = word src 2 and nv = word src 3 and ne = word src 4 and na = word src 5 in
    if nv < 0 || ne < 0 || na < 0 then
      reject
        (Bin_bad_header (Printf.sprintf "negative counts %d/%d/%d" nv ne na));
    let expected = header_words + nv + (2 * ne) + (3 * na) in
    if words <> expected then
      reject (Bin_truncated { expected = 4 * expected; got = 4 * words });
    if vk <= 0 then reject (Bin_bad_header (Printf.sprintf "k = %d" vk));
    for i = 1 to nv - 1 do
      if word src (vertex_base + i) <= word src (vertex_base + i - 1) then
        reject
          (Bin_malformed
             (Printf.sprintf "vertex table not strictly increasing at %d" i))
    done;
    let section ~what ~base ~count ~stride =
      let pi = ref (-1) and pj = ref (-1) in
      for e = 0 to count - 1 do
        let at = base + (stride * e) in
        let i = word src at and j = word src (at + 1) in
        if i < 0 || j < 0 || i >= nv || j >= nv then
          reject
            (Bin_malformed
               (Printf.sprintf "%s %d: index (%d, %d) outside vertex table"
                  what e i j));
        if i >= j then
          reject
            (Bin_malformed
               (Printf.sprintf "%s %d: endpoints (%d, %d) not ordered" what e
                  i j));
        if stride = 3 && word src (at + 2) < 0 then
          reject
            (Bin_malformed
               (Printf.sprintf "%s %d: negative weight %d" what e (word src (at + 2))));
        if i < !pi || (i = !pi && j <= !pj) then
          reject
            (Bin_malformed
               (Printf.sprintf "%s section not strictly sorted at %d" what e));
        pi := i;
        pj := j
      done
    in
    section ~what:"edge" ~base:(header_words + nv) ~count:ne ~stride:2;
    section ~what:"affinity"
      ~base:(header_words + nv + (2 * ne))
      ~count:na ~stride:3;
    Ok { vk; nv; ne; na; src }
  with Reject e -> Error e

(* A string's words, or the typed error for a length that is not a
   whole number of them — reported against the nearest well-formed size
   so a truncation inside a word still reads as truncation, not as a
   magic/header problem. *)
let validate_string s ~pos ~len =
  if len mod 4 <> 0 then
    Error (Bin_truncated { expected = 4 * ((len / 4) + 1); got = len })
  else validate { s; base = pos } ~words:(len / 4)

let view_of_binary s = validate_string s ~pos:0 ~len:(String.length s)

let of_binary s =
  match view_of_binary s with
  | Ok v -> Ok (view_problem v)
  | Error _ as e -> e

let is_binary s =
  String.length s >= 4 && String.sub s 0 4 = binary_magic

let write_binary_file path p =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_binary p))

(* ---- canonical hash ---------------------------------------------- *)

(* FNV-1a over the canonical binary encoding.  64-bit arithmetic in a
   63-bit int loses the top bit of the state each step — harmless for a
   cache key (it is not a cryptographic commitment; the serve-path
   cache stores the full key alongside and certifies answers
   independently). *)
let fnv1a s ~pos ~len =
  (* The canonical 64-bit offset basis with its top bit dropped, so the
     literal fits OCaml's 63-bit int. *)
  let h = ref 0x4bf29ce484222325 in
  for i = pos to pos + len - 1 do
    h := (!h lxor Char.code (String.unsafe_get s i)) * 0x100000001b3
  done;
  !h land max_int

let hex h = Printf.sprintf "%015x" h
let hash_binary s = hex (fnv1a s ~pos:0 ~len:(String.length s))
let canonical_hash p = hash_binary (to_binary p)

(* Validated RCBI bytes are the canonical encoding of the problem they
   decode to, so hashing them in place is [canonical_hash] of that
   problem without building it. *)
let key_view s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Instance_io: keyed range outside the string";
  match validate_string s ~pos ~len with
  | Ok v -> Ok (hex (fnv1a s ~pos ~len), v)
  | Error _ as e -> e

let key_binary s ~pos ~len = Result.map fst (key_view s ~pos ~len)

let copy_view v =
  let words = header_words + v.nv + (2 * v.ne) + (3 * v.na) in
  { v with src = { s = String.sub v.src.s v.src.base (4 * words); base = 0 } }
