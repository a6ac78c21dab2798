(** Coalescing-result certifier: layer 3 of the checking stack
    (DESIGN.md).

    Every search driver ultimately returns a coalescing of the problem —
    a partition of the vertices into non-interfering classes, the
    quotient (merged) graph, and a classification of the affinities.
    All of the paper's claims about such an answer are independently
    checkable certificates, so this module re-derives each one from the
    original {!Rc_core.Problem.t} and first-class {!answer} data,
    without trusting the search, the flat kernel, or the speculation
    context that produced it:

    - the classes partition the vertex set and contain no interference;
    - the merged graph is {e exactly} the quotient of the original
      graph by the classes (no missing projected edge, nothing
      spurious);
    - the coalesced / gave-up affinity split matches the classes, and
      the claimed removed-move weight is the recomputed one;
    - under the {!Conservative} claim, the merged graph {e as given} is
      greedy-k-colorable, re-established by the certifier's own peeling
      (a degree array and a worklist over int rows: the stamped
      quotient rows when they equal the merged graph, the merged
      graph's own rows otherwise) — it shares no code with
      {!Rc_graph.Greedy_k} or {!Rc_graph.Flat};
    - under the {!Chordality_preserved} claim, a chordal input keeps a
      chordal merged graph ({!Rc_graph.Chordal.Reference}).

    Cost: O(V + E) plus O(A log (V + A)) for the affinity bookkeeping
    ({!Rc_core.Problem.validate}, and bisection in the problem's sorted
    affinity list), plus the chordality check when it is claimed.  On
    a correct answer it allocates a few words per vertex, edge and
    affinity (test_check pins the bound at 10^3 to 10^5 vertices).
    One walk of each graph's rows builds dense int arrays: a vertex
    table indexed directly (or hashed, for a sparse label range), a
    class id per vertex, and quotient rows stamped from the class
    members' rows and compared with the merged graph's rows by size
    and membership.  No persistent quotient is built; sorting happens
    only to list the violations of a failing answer, in the order a
    label-ordered comparison of persistent graphs reports them (the
    test-only oracle [Rc_oracle.Certify_oracle] is that comparison,
    and test_check holds the two to identical reports).  perfbench
    measures it per request ([certify.ms_p50], [certify.ms_tail],
    [certify.alloc_kw_p50]). *)

module Graph = Rc_graph.Graph
module Problem = Rc_core.Problem
module Coalescing = Rc_core.Coalescing

(** What the answer claims about itself, beyond soundness (which is
    always checked). *)
type claim =
  | Conservative  (** merged graph greedy-k-colorable for the problem's k *)
  | Chordality_preserved  (** chordal input => chordal merged graph *)

(** A coalescing answer as first-class data.  {!answer_of_solution}
    extracts one from a {!Rc_core.Coalescing.solution}; mutation tests
    forge corrupted ones directly. *)
type answer = {
  classes : (Graph.vertex * Graph.vertex list) list;
      (** representative, members (representative included) *)
  merged_graph : Graph.t;
  coalesced : Problem.affinity list;
  gave_up : Problem.affinity list;
  claimed_weight : int;
}

type violation =
  | Invalid_problem of Problem.error
  | Unknown_class_member of { rep : Graph.vertex; member : Graph.vertex }
      (** class member that is not a vertex of the problem graph *)
  | Representative_outside_class of Graph.vertex
  | Vertex_in_two_classes of Graph.vertex
  | Vertex_not_covered of Graph.vertex
  | Interference_inside_class of {
      u : Graph.vertex;
      v : Graph.vertex;
      rep : Graph.vertex;
    }
  | Missing_merged_vertex of Graph.vertex
      (** class representative absent from the merged graph *)
  | Spurious_merged_vertex of Graph.vertex
      (** merged-graph vertex that represents no class *)
  | Missing_projected_edge of { u : Graph.vertex; v : Graph.vertex }
      (** projected interference absent from the merged graph *)
  | Spurious_merged_edge of { u : Graph.vertex; v : Graph.vertex }
      (** merged-graph edge with no originating interference *)
  | Misclassified_affinity of {
      u : Graph.vertex;
      v : Graph.vertex;
      claimed_coalesced : bool;
    }
  | Affinity_unaccounted of { u : Graph.vertex; v : Graph.vertex }
      (** affinity missing from both lists, listed twice, or unknown *)
  | Weight_mismatch of { claimed : int; actual : int }
  | Not_conservative of { k : int }
  | Chordality_lost
  | Merge_log_divergence of { reason : string }

type report = { claims : claim list; violations : violation list }

val certify : ?claims:claim list -> Problem.t -> answer -> report
(** Full certification.  [claims] defaults to [[]]: soundness only. *)

val certify_solution :
  ?claims:claim list -> Problem.t -> Coalescing.solution -> report

val answer_of_solution : Coalescing.solution -> answer

val check_merge_log :
  Problem.t -> (Graph.vertex * Graph.vertex) list -> answer -> violation list
(** Replays the merge log through the persistent
    {!Rc_core.Coalescing.merge} path (independent of the flat kernel)
    and demands the resulting classes and merged graph coincide with
    the answer's — the "merged graph consistent with the merge log"
    certificate for speculative searches. *)

val ok : report -> bool
val pp_report : Format.formatter -> report -> unit
val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string
