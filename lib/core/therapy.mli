(** Therapeutic strategy identification (Sec. IV-B): treatment schemes as
    mode paths with synthesized drug-delivery thresholds, preferring the
    fewest drug administrations (side-effect minimization). *)

type plan = {
  path : string list;  (** the treatment scheme as a mode path *)
  thresholds : (string * float) list;
  jumps : int;
  reach_time : float;
  safety_checked : bool;
      (** the harm check returned unsat at these thresholds *)
  safety_rigorous : bool;
      (** that unsat is a proof: every flow segment behind it was a
          validated tube.  [false] means some segment fell back to a
          sampled ensemble bracket ({!Reach.Checker.result}); {!pp_plan}
          then prints "safety bracketed" instead of "safety verified". *)
}

type outcome =
  | Plan of plan
  | No_plan of string

val safe_at :
  ?config:Reach.Checker.config ->
  Hybrid.Automaton.t ->
  harm:Reach.Encoding.goal ->
  k_harm:int ->
  time_bound:float ->
  (string * float) list ->
  bool option
(** Is the harm goal unreachable at fixed thresholds?  [None] when the
    solver could not decide. *)

val optimize :
  ?config:Reach.Checker.config ->
  ?k_harm:int ->
  param_box:Interval.Box.t ->
  recovery:Reach.Encoding.goal ->
  harm:Reach.Encoding.goal ->
  max_jumps:int ->
  time_bound:float ->
  Hybrid.Automaton.t ->
  outcome
(** Shortest-first search for thresholds making [recovery] reachable with
    [harm] verified unreachable at the witness thresholds. *)

val pp_plan : plan Fmt.t
val pp_outcome : outcome Fmt.t
