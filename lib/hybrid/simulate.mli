(** Simulation of hybrid automata trajectories (Definitions 8–10).

    Trajectories follow the hybrid time domain: a sequence of segments,
    one per visited mode, each with a continuous trace on a local clock
    (what guards and invariants see) while global time accumulates.

    Jump semantics are urgent and deterministic: after each accepted
    integration step the enabled jumps are inspected in declaration order
    and the first enabled one is taken, with the crossing localized by
    bisection. *)

type segment = {
  seg_mode : string;
  t_global : float;  (** global time at mode entry *)
  trace : Ode.Integrate.trace;  (** local clock starting at 0 *)
}

type stop_reason =
  | Time_exhausted
  | Jump_budget
  | Stuck  (** invariant violated with no enabled jump *)
  | Blow_up
  | Zeno  (** many consecutive jumps with (near-)zero dwell time *)

type trajectory = {
  segments : segment list;
  path : string list;  (** visited modes in order *)
  final_mode : string;
  final_env : (string * float) list;
  total_time : float;
  reason : stop_reason;
}

val pp_stop_reason : stop_reason Fmt.t

val simulate :
  ?method_:Ode.Integrate.method_ ->
  ?max_jumps:int ->
  ?event_tol:float ->
  ?zeno_dwell:float ->
  ?zeno_limit:int ->
  params:(string * float) list ->
  init:(string * float) list ->
  t_end:float ->
  Automaton.t ->
  trajectory
(** Simulate from the automaton's initial box midpoint; entries in [init]
    override individual initial values.  Runs inside the
    [hybrid.simulate] telemetry span and counts one [hybrid.segments]
    per mode visit.
    @raise Invalid_argument on an unbound parameter. *)

val simulate_default :
  ?method_:Ode.Integrate.method_ ->
  ?max_jumps:int ->
  ?event_tol:float ->
  params:(string * float) list ->
  t_end:float ->
  Automaton.t ->
  trajectory

val value_at : trajectory -> string -> float -> float option
(** Value of a variable at a global time ([None] outside the domain). *)

val sample : trajectory -> string -> n:int -> (float * float option) list
(** [n] evenly spaced (global time, value) samples. *)

val to_csv : trajectory -> string
(** CSV on the global time axis with the mode name as the last column. *)

val pp_trajectory : trajectory Fmt.t
