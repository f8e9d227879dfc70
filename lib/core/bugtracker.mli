(** Bug tracker.

    "Testbed operators would be well positioned to report bugs, but they
    are not testbed users" — here the testing framework is the reporter.
    Failing test scripts emit {e evidence}; evidence with an
    already-known signature increments the existing bug instead of filing
    a duplicate, so the bug count reflects distinct problems (the paper's
    "118 bugs filed, 84 already fixed").

    The store is designed for millions of filings: filing is O(1) with
    maintained counters (no list scans), every bug carries a
    [last_seen] timestamp, a bounded evidence ring and a downsampled
    occurrence timeseries, and an optional {!limits} record caps live
    memory — cold bugs are {e evicted} to tombstones that keep their
    occurrence counts so deduplication stays correct, and recurrences
    {e resurrect} them.  Without limits (the default) behaviour is
    exactly the historical unbounded store. *)

type evidence = {
  signature : string;  (** dedup key, e.g. ["disk-write-cache:graphene-12"] *)
  summary : string;
  category : string;  (** the paper's bug classes, see {!Testbed.Faults.category} *)
  source_test : string;  (** config id of the reporting test *)
  fault_ids : int list;  (** correlated ground-truth faults, for repair *)
}

type status = Open | Fixed

type bug = {
  id : int;
  signature : string;
  summary : string;
  category : string;
  first_test : string;
  filed_at : float;
  mutable fault_ids : int list;
  mutable occurrences : int;
  mutable status : status;
  mutable fixed_at : float option;
  mutable last_seen : float;
      (** refreshed on every duplicate filing: a bug recurring daily is
          distinguishable from one that went quiet months ago *)
  mutable reopens : int;  (** fixed->open transitions (regressions) *)
  mutable recent : evidence list;
      (** newest first, bounded by [limits.ring_size]; always [[]] on an
          unbounded tracker *)
  series : Simkit.Timeseries.t option;
      (** per-bug occurrence counts at [limits.series_cadence], bounded
          to [limits.series_points]; [None] on an unbounded tracker *)
}

type limits = {
  ring_size : int;  (** evidence bundles retained per bug *)
  max_live : int;  (** cap on live (non-tombstone) signatures *)
  min_idle : float;
      (** seconds a bug must have been quiet before the first eviction
          pass may take it (the second pass ignores this if hot bugs
          alone exceed the cap, so the bound always holds) *)
  series_cadence : float;  (** occurrence-series bucket, seconds *)
  series_points : int;  (** occurrence-series length bound *)
}

val default_limits : limits
(** ring 8, 50k live signatures, 6 h idle grace, daily series capped at
    256 points. *)

(** Store transitions, in emission order within one {!file} call:
    [Reopened] (if any) precedes [Refiled]/[Resurrected]. *)
type event =
  | Filed of bug  (** a brand-new signature *)
  | Refiled of bug  (** duplicate of a live bug *)
  | Reopened of bug  (** a fixed bug regressed *)
  | Marked_fixed of bug
  | Evicted of bug  (** cold bug moved to the tombstone store *)
  | Resurrected of bug  (** tombstoned signature recurred *)

type stats = {
  live : int;  (** signatures currently in the live store *)
  filed_total : int;  (** distinct signatures ever filed (live + evicted) *)
  fixed_total : int;
  evicted : int;  (** eviction events *)
  resurrected : int;  (** tombstones brought back by a recurrence *)
  tombstoned_occurrences : int;
      (** occurrences currently held only by tombstones — the explicit
          account of what eviction moved out of the live store *)
  peak_live : int;  (** high-water mark of [live], after eviction *)
}

type t

val create : ?limits:limits -> unit -> t
(** Without [limits], the unbounded historical store.
    @raise Invalid_argument on non-positive ring/cap/cadence, negative
    idle grace or a series bound below 2. *)

val on_event : t -> (event -> unit) -> unit
(** Register a listener called synchronously on every store transition
    (the triage loop's feed). *)

val file : t -> now:float -> evidence -> [ `New of bug | `Duplicate of bug ]
(** Duplicate evidence refreshes the bug's occurrence count, [last_seen]
    and evidence ring, and merges fault ids; filing against a {e fixed}
    bug reopens it (regression).  Filing against an evicted signature
    resurrects the tombstone — reported as [`Duplicate], since the
    signature is already known. *)

val all : t -> bug list
(** Live bugs, by id (filing order). *)

val open_bugs : t -> bug list
val find : t -> signature:string -> bug option

val tombstoned : t -> bug list
(** Evicted bugs, by id.  Their occurrence counts are authoritative;
    their evidence rings are cleared. *)

val occurrences_of : t -> signature:string -> int
(** Occurrences recorded for a signature, wherever it lives (live store,
    tombstone, or 0 if never filed). *)

val mark_fixed : t -> now:float -> bug -> unit

val counts : t -> int * int
(** (filed, fixed) — O(1), from maintained counters.  Filed counts
    distinct signatures ever seen, including evicted ones. *)

val stats : t -> stats

val by_category : t -> (string * int * int) list
(** category, filed, fixed — sorted by filed count, descending.
    Includes tombstoned bugs, so totals match {!counts}. *)
