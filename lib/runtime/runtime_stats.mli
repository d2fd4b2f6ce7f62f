(** Thread-safe instrumentation counters for the repair runtime.

    Collects job counts and the queue-depth high-water mark, reads the
    per-stage wall-clock totals, and renders everything — together with
    the cache counters — as a JSON object.

    Every per-runtime counter is also mirrored into the process-wide
    {!Metrics} registry under a stable Prometheus name
    ([tml_jobs_submitted_total], [tml_retries_total], …), so metrics
    accumulate across runtime lifetimes while job counters stay scoped to
    one runtime.  Stage totals are the exception: they are read from the
    [tml_stage_seconds{stage}] histograms that {!Instr.time} feeds, so
    they are process-wide — they cover every runtime the process has
    opened (and any stage timed outside a runtime) since start-up or the
    last {!Metrics.reset}. *)

type t
(** A mutable counter set owned by one runtime. *)

type stage_totals = { count : int; total_s : float }

type snapshot = {
  submitted : int;
  completed : int;
  failed : int;
  cancelled : int;
  timed_out : int;
  retried : int;  (** transient-failure re-runs performed by the retry layer *)
  respawned : int;  (** worker domains respawned after a crash *)
  faults_injected : int;  (** faults fired by an installed {!Fault} plan *)
  report_cache_hits : int;
      (** jobs answered from the report cache without touching the pool *)
  max_queue_depth : int;
  stages : (string * stage_totals) list;
      (** keyed by {!Instr.stage_name}: learn / eliminate / solve / check;
          process-wide, read from {!Instr.stage_histogram} *)
}

type counter =
  [ `Submitted
  | `Completed
  | `Failed
  | `Cancelled
  | `Timed_out
  | `Retried
  | `Respawned
  | `Fault_injected
  | `Report_hit ]
(** The events a runtime counts; one snapshot field each. *)

val create : unit -> t
(** A zeroed counter set. *)

val incr : t -> counter -> unit
(** Count one event, in this runtime and in the global {!Metrics}
    registry.  Thread-safe. *)

val observe_queue_depth : t -> int -> unit
(** Track the queue-depth high-water mark (and the [tml_queue_depth]
    gauges). *)

val snapshot : t -> snapshot
(** A consistent copy of every job counter, plus the process-wide stage
    totals at the time of the call. *)

val to_json :
  workers:int ->
  ?report_cache:Lru_cache.counters ->
  ?elim_cache:Lru_cache.counters ->
  t ->
  string
(** A self-contained JSON object: job counters, queue high-water mark,
    per-stage timings, worker count and (when supplied) cache counters
    with their hit rates. *)
