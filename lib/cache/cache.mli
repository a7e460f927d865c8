(** Domain-safe exact-hit stores for interval computations.

    Two analyses revisit identical boxes: bounded-reachability unrolling
    re-integrates the mode flows that sibling paths share, and BioPSy
    refinement re-classifies parameter boxes of coarser pavings.  Both
    computations are deterministic functions of their key, so a result
    stored for a box replays bit for bit on an equal box.

    A cache is a set of {e groups}, one per fully-qualified query key
    (system digest, configuration fingerprint, horizon, …); each group
    holds recently inserted [(box, value)] entries.  Lookup is an exact
    [Box.equal] match only — a stored result is never reused for a
    different box.

    Storage is sharded by group with one [Mutex] per shard, so worker
    domains of [lib/parallel] frontiers can share a cache without a
    global lock.  Capacity is bounded per group (FIFO eviction) and per
    shard (bounded group count).

    Escape hatch: [BIOMC_NO_CACHE=1] (CLI [--no-cache]) disables every
    cache (every lookup misses, every insert is dropped), reproducing
    the uncached code paths exactly.  {!set_enabled} overrides the
    environment (benchmarks, tests). *)

val enabled : unit -> bool
(** The {!set_enabled} override if any, else [false] under
    [BIOMC_NO_CACHE=1] and [true] otherwise. *)

val set_enabled : bool -> unit
(** Override {!enabled} for the whole process (all domains). *)

val clear_enabled_override : unit -> unit
(** Return {!enabled} to the environment-variable default. *)

(** {1 Stats}

    The backing store for every statistic below is the process-wide
    telemetry metrics registry ([Telemetry.Counter], one counter per
    ["cache.<name>.<field>"], created always-on so counting does not
    depend on telemetry being enabled).  The entry points here are thin
    views over those counters; [biomc --metrics] reports the same
    numbers from the registry directly. *)

type stats = { hits : int; misses : int; insertions : int; evictions : int }

val sub_stats : stats -> stats -> stats
(** Pointwise difference — for per-query deltas around a run. *)

val global_stats : unit -> stats
(** Totals over every cache in the process. *)

val named_stats : unit -> (string * stats) list
(** Per cache-name totals, sorted by name (caches created with the same
    name share one counter set). *)

val summary : unit -> string
(** One-line global summary (hits/misses) for CLI output. *)

(** {1 Caches} *)

type 'v t

val create : ?group_capacity:int -> string -> 'v t
(** [create name] makes a cache whose stats are aggregated under [name].
    [group_capacity] (default 4096) bounds the entries retained per
    group (newest kept); each of the 8 shards holds at most 128 groups
    (oldest evicted). *)

val find : 'v t -> group:string -> Interval.Box.t -> 'v option
(** The value stored under an equal box, if any; always [None] when
    caching is disabled. *)

val add : 'v t -> group:string -> Interval.Box.t -> 'v -> unit
(** Insert (replacing an existing entry with an equal box).  No-op when
    caching is disabled. *)

val length : 'v t -> int
(** Total entries currently cached (diagnostic). *)

val clear : unit -> unit
(** Invalidate every entry of every cache in the process (an epoch bump:
    stale groups are discarded lazily).  Stats are not reset. *)
