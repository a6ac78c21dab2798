(* What a run prints: metric lines with units, self-check lines, and
   the final one-line JSON result. *)

type metric = { name : string; value : float; unit_ : string }

let metrics : metric list ref = ref []
let checks_ok = ref true
let info fmt = Printf.printf (fmt ^^ "\n%!")

let metric name unit_ value =
  metrics := { name; value; unit_ } :: !metrics;
  info "metric %-40s %.6g %s" name value unit_

(* A workload self-check: printed on every run; a failing one fails the
   run. *)
let check name ok detail =
  if not ok then checks_ok := false;
  info "check  %-40s %s  (%s)" name (if ok then "ok" else "FAILED") detail

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%.17g" f

let result ~attempted ~failed =
  let correct = !checks_ok && failed = 0 in
  let ms =
    List.rev_map
      (fun m ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (json_float m.value) m.unit_)
      !metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " ms);
  correct
