(** Time-bounded robustness analysis (Sec. IV-C): an `unsat` answer
    shows the system filters out a whole range of inputs.  It is a proof
    only when every flow segment behind it was a validated tube; when a
    segment fell back to a sampled ensemble bracket the verdict is
    [Robust { rigorous = false }].  The input range is the initial box
    of the automaton built by the caller. *)

type verdict =
  | Robust of { rigorous : bool }
      (** response unreachable from the whole range; [rigorous] is the
          checker's flag ({!Reach.Checker.result}): a proof when [true],
          a bracketed (sampled) answer when [false] *)
  | Excitable of (string * float) list  (** certified triggering witness *)
  | Borderline of string

val classify :
  ?config:Reach.Checker.config ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  ('range -> Hybrid.Automaton.t) ->
  'range ->
  verdict

val sweep :
  ?config:Reach.Checker.config ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  ('range -> Hybrid.Automaton.t) ->
  'range list ->
  ('range * verdict) list
(** The excitability threshold lies between the last Robust and the first
    Excitable range. *)

val threshold :
  ?config:Reach.Checker.config ->
  goal:Reach.Encoding.goal ->
  k:int ->
  time_bound:float ->
  lo:float ->
  hi:float ->
  ?tol:float ->
  (float -> Hybrid.Automaton.t) ->
  float option
(** Bisection on a scalar amplitude, assuming monotone excitability. *)

val pp_verdict : verdict Fmt.t
(** A non-rigorous [Robust] prints as [robust (unsat, bracketed)]. *)
