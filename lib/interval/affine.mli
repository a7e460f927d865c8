(** Affine arithmetic: sound enclosures that track first-order
    correlations between subexpressions.

    An affine form [x̂ = x₀ + Σᵢ xᵢ·εᵢ + [−r, r]] represents a quantity as
    a center plus linear terms in noise symbols [εᵢ ∈ [−1, 1]] shared
    between forms, plus an anonymous error radius [r] absorbing
    linearization and rounding errors.  Where plain interval arithmetic
    loses every correlation ([x − x] evaluates to a width-doubling
    interval), affine forms cancel shared symbols exactly — the wrapping
    effect that makes branch-and-prune pavings explode.

    Soundness contract: for every assignment of the noise symbols to
    [[−1, 1]] consistent with the operand forms, the result form encloses
    the exact real-valued result.  Concretizations are therefore always
    valid interval enclosures, though never assumed tighter than the
    interval evaluation of the same expression — callers intersect the
    two.  Every bound computed here is widened outward (see {!Round}), so
    the contract holds under floating-point rounding.

    Nonlinear operations are linearized:
    - [mul]/[sqr] use the standard affine product with the quadratic
      part recentered (the [sqr] remainder is one-sided, halving it);
    - [inv], [sqrt], [exp], [log] use min-range linearization (the slope
      is clamped to the extreme derivative, so the concretized range
      never overshoots the true range on the interval);
    - [sin], [cos], [tan], [atan], [tanh], [pow_int] use a
      Chebyshev-style mean-value linearization
      [f(x) ∈ f(m) + f'(X)·(x − m)] with the slope centered;
    - non-smooth operations ([abs], [min_], [max_]) fall back to
      interval arithmetic unless their operand ranges make them exact.

    A form degrades to a plain interval when unbounded, when a
    linearization would be wider than the interval result, or through a
    non-affine fallback; it degrades to bottom (empty) when the operand
    leaves the operation's domain entirely.  Forms stay small: a noise
    budget (default {!default_budget}) triggers deterministic
    condensation — the smallest-magnitude terms are folded into the
    error radius, largest survivors kept, ties broken by symbol index —
    so evaluation cost stays linear in the budget. *)

type t

(** {1 Enable/disable switch}

    The switch gates the one affine-powered path, the ODE field
    evaluation in [Ode.Enclosure] (affine range intersected into the
    interval one), not this module's arithmetic: operations work
    regardless.  HC4 and the pave certifier never evaluate affine
    forms, so the switch does not reach decide or pave.
    [BIOMC_NO_AFFINE=1] (or [true]/[yes]) disables the pass;
    {!set_enabled} overrides the environment (CLI [--no-affine],
    benchmarks, differential tests). *)

val enabled : unit -> bool
val set_enabled : bool -> unit
val clear_enabled_override : unit -> unit

(** {1 Noise budget} *)

val default_budget : int
(** Default maximum number of noise terms per form (64). *)

val budget : unit -> int
(** The effective budget: the last {!set_budget} value if any,
    otherwise [BIOMC_AFFINE_BUDGET] from the environment (positive
    integers only; malformed values fall back to {!default_budget}),
    otherwise {!default_budget}.  Only the ODE field's affine forms
    reach it; reach and synth runs snapshot it into their journal flag
    header, so [biomc explain]'s flag-consistency audit covers it. *)

val set_budget : int -> unit
(** Set the process-wide budget (clamped to ≥ 1); overrides the
    environment. *)

val condense : ?budget:int -> t -> t
(** Fold the smallest-magnitude noise terms into the error radius until
    at most [budget] (default {!budget}[ ()]) remain.  Deterministic:
    terms are ranked by decreasing |coefficient|, ties by increasing
    symbol index.  The concretization of the result contains the
    concretization of the argument.  Exposed for tests; operations
    condense automatically. *)

(** {1 Constructors and queries} *)

val const : float -> t
(** Singleton form (no noise terms, zero error). *)

val of_interval : sym:int -> Ia.t -> t
(** [of_interval ~sym iv]: the form [mid iv + rad iv·ε_sym], enclosing
    [iv].  Two forms built from the same [sym] are treated as perfectly
    correlated — callers must use distinct symbols for independent
    quantities.  Empty [iv] yields bottom; unbounded [iv] yields an
    interval-fallback form. *)

val concretize : t -> Ia.t
(** The interval enclosure of the form (empty for bottom). *)

val is_bot : t -> bool
val is_affine : t -> bool
(** True when the value carries noise terms (not bottom, not an interval
    fallback). *)

val nterms : t -> int
(** Number of noise terms (0 for bottom, intervals and constants). *)

val pp : t Fmt.t

(** {1 Arithmetic}

    Every operation matches the domain semantics of the corresponding
    {!Ia} operation (e.g. [log] of a form whose range is entirely
    non-positive is bottom, division by a zero-straddling range degrades
    to the entire line). *)

val neg : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val scale : float -> t -> t
val add_const : float -> t -> t
val mul : t -> t -> t
val sqr : t -> t
val inv : t -> t
val div : t -> t -> t
val pow_int : t -> int -> t
val exp : t -> t
val log : t -> t
val sqrt : t -> t
val sin : t -> t
val cos : t -> t
val tan : t -> t
val atan : t -> t
val tanh : t -> t
val abs : t -> t
val min_ : t -> t -> t
val max_ : t -> t -> t

(** {1 Telemetry}

    Counters live in the process-wide telemetry registry (created
    always-on, like the cache statistics): [affine.tightenings] —
    evaluations where the affine range strictly tightened an interval
    enclosure, incremented by the ODE field pass through
    {!note_tightening}; [affine.condensations] — noise budget
    condensations, counted here.  {!with_span} wraps affine evaluation
    passes in the [icp.affine] trace span. *)

val note_tightening : unit -> unit
val with_span : (unit -> 'a) -> 'a
