module ISet = Graph.ISet

(* The greedy-k elimination scheme on the flat kernel: a plain array
   worklist of low-degree indices, O(V + E) with no allocation beyond
   the scratch buffers.  A vertex enters the worklist exactly once —
   when its degree first drops below k — so no seen-check is needed on
   push, only the [removed] guard on pop (a vertex that started below k
   never re-enters).

   [deg]/[state] live in the flat graph's scratch buffers; [order]
   doubles as the worklist: removed vertices are appended at [n_removed]
   while the scan cursor chases it, so the final prefix is exactly the
   elimination order. *)

let state_removed = 1

(* The neighbor walks below duplicate [Flat.iter_neighbors]'s dispatch
   instead of calling it: a bitset row is consumed one 32-bit word per
   memory read with the degree updates applied straight off the bit
   chain — no per-neighbor closure call survives in either loop. *)

let flat_eliminate f k ~order =
  let deg = Flat.scratch1 f in
  let state = Flat.scratch2 f in
  let n_removed = ref 0 in
  Flat.iter_live f (fun v ->
      deg.(v) <- Flat.degree f v;
      state.(v) <- 0;
      if deg.(v) < k then begin
        order.(!n_removed) <- v;
        incr n_removed
      end);
  let cursor = ref 0 in
  while !cursor < !n_removed do
    let v = order.(!cursor) in
    incr cursor;
    if state.(v) <> state_removed then begin
      state.(v) <- state_removed;
      let dw = Flat.row_words f v in
      let nw = Array.length dw in
      if nw <> 0 then begin
        if Flat.degree f v * 4 >= nw then
          for i = 0 to nw - 1 do
            let w = ref (Array.unsafe_get dw i) in
            if !w <> 0 then begin
              let base = i * Flat.Bits.word_bits in
              while !w <> 0 do
                let u = base + Flat.Bits.lsb !w in
                w := !w land (!w - 1);
                if Array.unsafe_get state u <> state_removed then begin
                  let d = Array.unsafe_get deg u - 1 in
                  Array.unsafe_set deg u d;
                  if d = k - 1 then begin
                    order.(!n_removed) <- u;
                    incr n_removed
                  end
                end
              done
            end
          done
        else begin
          (* Sparse-populated bitset row: hop across empty words
             through the occupancy summary (the hybrid-walk bucket). *)
          let sm = Flat.row_summary f v in
          for si = 0 to Array.length sm - 1 do
            let sw = ref (Array.unsafe_get sm si) in
            if !sw <> 0 then begin
              let sbase = si * Flat.Bits.word_bits in
              while !sw <> 0 do
                let i = sbase + Flat.Bits.lsb !sw in
                sw := !sw land (!sw - 1);
                let w = ref (Array.unsafe_get dw i) in
                let base = i * Flat.Bits.word_bits in
                while !w <> 0 do
                  let u = base + Flat.Bits.lsb !w in
                  w := !w land (!w - 1);
                  if Array.unsafe_get state u <> state_removed then begin
                    let d = Array.unsafe_get deg u - 1 in
                    Array.unsafe_set deg u d;
                    if d = k - 1 then begin
                      order.(!n_removed) <- u;
                      incr n_removed
                    end
                  end
                done
              done
            end
          done
        end
      end
      else begin
        let a = Flat.row_entries f v and n = Flat.degree f v in
        for i = 0 to n - 1 do
          let u = Array.unsafe_get a i in
          if Array.unsafe_get state u <> state_removed then begin
            let d = Array.unsafe_get deg u - 1 in
            Array.unsafe_set deg u d;
            if d = k - 1 then begin
              order.(!n_removed) <- u;
              incr n_removed
            end
          end
        done
      end
    end
  done;
  !n_removed

let flat_is_greedy_k_colorable f k =
  let order = Array.make (max 1 (Flat.capacity f)) 0 in
  flat_eliminate f k ~order = Flat.num_live f

let flat_elimination_order f k =
  let order = Array.make (max 1 (Flat.capacity f)) 0 in
  let n = flat_eliminate f k ~order in
  if n = Flat.num_live f then
    Some (Array.to_list (Array.sub order 0 n))
  else None

let flat_residue f k =
  let order = Array.make (max 1 (Flat.capacity f)) 0 in
  let n = flat_eliminate f k ~order in
  if n = Flat.num_live f then None
  else begin
    (* scratch2 still holds the removal states from flat_eliminate. *)
    let state = Flat.scratch2 f in
    let residue = ref [] in
    Flat.iter_live f (fun v ->
        if state.(v) <> state_removed then residue := v :: !residue);
    Some !residue
  end

let elimination_order g k =
  let f = Flat.of_graph g in
  match flat_elimination_order f k with
  | None -> None
  | Some order -> Some (List.map (Flat.label f) order)

let is_greedy_k_colorable g k =
  flat_is_greedy_k_colorable (Flat.of_graph g) k

let witness_subgraph g k =
  let f = Flat.of_graph g in
  match flat_residue f k with
  | None -> None
  | Some residue ->
      Some (List.fold_left (fun s v -> ISet.add (Flat.label f v) s) ISet.empty residue)

let color g k =
  match elimination_order g k with
  | None -> None
  | Some order ->
      let coloring = Coloring.greedy g (List.rev order) in
      assert (Coloring.num_colors coloring <= k);
      Some coloring

(* Smallest-last order via a bucket queue with lazy deletion: vertices
   live in the bucket of their current degree; decrementing re-pushes
   into the bucket below and stale entries are skipped on pop.  The
   minimum pointer drops by at most one per removal, so the total scan
   is O(V + E), replacing the old O(V^2) min-scan.  Returns the
   degeneracy (col(G) - 1); the order lands in [order.(0 .. n-1)]. *)
let flat_smallest_last f ~order =
  let n = Flat.num_live f in
  if n = 0 then 0
  else begin
    let deg = Flat.scratch1 f in
    let state = Flat.scratch2 f in
    let maxdeg = ref 0 in
    Flat.iter_live f (fun v ->
        deg.(v) <- Flat.degree f v;
        state.(v) <- 0;
        if deg.(v) > !maxdeg then maxdeg := deg.(v));
    let buckets = Array.make (!maxdeg + 1) [] in
    Flat.iter_live f (fun v -> buckets.(deg.(v)) <- v :: buckets.(deg.(v)));
    let degeneracy = ref 0 in
    let dmin = ref 0 in
    for i = 0 to n - 1 do
      (* A removal lowers each remaining degree by at most one. *)
      if !dmin > 0 then decr dmin;
      let rec pop () =
        match buckets.(!dmin) with
        | [] ->
            incr dmin;
            pop ()
        | v :: rest ->
            buckets.(!dmin) <- rest;
            if state.(v) = state_removed || deg.(v) <> !dmin then pop ()
            else v
      in
      let v = pop () in
      state.(v) <- state_removed;
      order.(i) <- v;
      if deg.(v) > !degeneracy then degeneracy := deg.(v);
      let dw = Flat.row_words f v in
      let nw = Array.length dw in
      if nw <> 0 then begin
        if Flat.degree f v * 4 >= nw then
          for i = 0 to nw - 1 do
            let w = ref (Array.unsafe_get dw i) in
            if !w <> 0 then begin
              let base = i * Flat.Bits.word_bits in
              while !w <> 0 do
                let u = base + Flat.Bits.lsb !w in
                w := !w land (!w - 1);
                if Array.unsafe_get state u <> state_removed then begin
                  let d = Array.unsafe_get deg u - 1 in
                  Array.unsafe_set deg u d;
                  buckets.(d) <- u :: buckets.(d)
                end
              done
            end
          done
        else begin
          let sm = Flat.row_summary f v in
          for si = 0 to Array.length sm - 1 do
            let sw = ref (Array.unsafe_get sm si) in
            if !sw <> 0 then begin
              let sbase = si * Flat.Bits.word_bits in
              while !sw <> 0 do
                let i = sbase + Flat.Bits.lsb !sw in
                sw := !sw land (!sw - 1);
                let w = ref (Array.unsafe_get dw i) in
                let base = i * Flat.Bits.word_bits in
                while !w <> 0 do
                  let u = base + Flat.Bits.lsb !w in
                  w := !w land (!w - 1);
                  if Array.unsafe_get state u <> state_removed then begin
                    let d = Array.unsafe_get deg u - 1 in
                    Array.unsafe_set deg u d;
                    buckets.(d) <- u :: buckets.(d)
                  end
                done
              done
            end
          done
        end
      end
      else begin
        let a = Flat.row_entries f v and n = Flat.degree f v in
        for i = 0 to n - 1 do
          let u = Array.unsafe_get a i in
          if Array.unsafe_get state u <> state_removed then begin
            let d = Array.unsafe_get deg u - 1 in
            Array.unsafe_set deg u d;
            buckets.(d) <- u :: buckets.(d)
          end
        done
      end
    done;
    !degeneracy
  end

let smallest_last_order g =
  let f = Flat.of_graph g in
  let order = Array.make (max 1 (Flat.capacity f)) 0 in
  let _ = flat_smallest_last f ~order in
  Array.to_list (Array.map (Flat.label f) (Array.sub order 0 (Flat.num_live f)))

let coloring_number g =
  if Graph.num_vertices g = 0 then 0
  else
    (* col(G) = 1 + degeneracy, read off the same smallest-last pass. *)
    let f = Flat.of_graph g in
    let order = Array.make (Flat.capacity f) 0 in
    1 + flat_smallest_last f ~order
