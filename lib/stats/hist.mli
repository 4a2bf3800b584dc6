(** Log-bucketed latency histograms (HDR-style) for the serving workloads.

    A histogram covers the full non-negative [int] range with fixed
    relative precision: values are binned into power-of-two buckets, each
    split into [2^precision_bits] sub-buckets, so any recorded value [v]
    lands in a bin no wider than [v * 2^(1 - precision_bits)].  That makes
    the percentile extraction exact up to the bin width
    ({!equivalent_range}) while {!record} stays allocation-free — a pure
    index computation and an [int array] increment — and {!merge} is a
    bucket-wise sum, so per-shard (or per-tenant) histograms can be
    recorded independently and combined afterwards without losing
    anything.

    The serving experiment records one sample per completed request and
    reads p50/p95/p99/p99.9 off the merged result; the byte-identical
    {!fingerprint} is what the determinism tests compare across shard and
    domain widths. *)

type t

val create : ?precision_bits:int -> unit -> t
(** A fresh, empty histogram.  [precision_bits] (default 7, giving 128
    sub-buckets per power of two, i.e. better than 1.6% relative error)
    must be in [1, 14]. *)

val record : t -> int -> unit
(** Record one sample.  Negative samples clamp to 0.  Allocates nothing in
    steady state (asserted by the test suite via [Gc.minor_words]). *)

val record_n : t -> int -> int -> unit
(** [record_n t v n] records [n] occurrences of [v] in one increment. *)

val count : t -> int
(** Samples recorded so far. *)

val min_value : t -> int
(** Smallest sample recorded, exactly ([max_int] when empty). *)

val max_value : t -> int
(** Largest sample recorded, exactly (0 when empty). *)

val total : t -> int
(** Sum of all samples (for means; wraps only past [max_int] ns). *)

val mean : t -> float

val percentile : t -> float -> int
(** [percentile t q] for [q] in [0, 1]: an upper bound for the q-th
    sample in sorted order, exact to the containing bin's width.  0 when
    empty; [q >= 1] returns the exact recorded maximum. *)

val p50 : t -> int
val p95 : t -> int
val p99 : t -> int
val p999 : t -> int

val equivalent_range : t -> int -> int
(** The width of the bin the given value falls in — the resolution bound
    on {!percentile} around that value. *)

val merge : into:t -> t -> unit
(** Add every sample of the second histogram into [into].  Equivalent to
    having recorded the concatenation of both sample streams (the QCheck
    property in [test_serve.ml]).  Precisions must match
    ([Invalid_argument]). *)

val copy : t -> t
val clear : t -> unit

val fingerprint : t -> string
(** FNV-1a fold over the non-empty bins (index and count, in index order)
    plus the exact count/min/max/total — byte-identical across merge
    orders and shard/domain widths. *)
