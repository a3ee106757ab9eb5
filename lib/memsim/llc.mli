(** Set-associative last-level cache model with software-prefetch support
    and dirty-line write-back tracking. *)

val line_bytes : int

type t

type outcome = Hit | Miss | Prefetched_hit

val create : capacity_bytes:int -> ways:int -> t
(** Set count is rounded down to a power of two. *)

val capacity_bytes : t -> int

val access :
  t -> int -> lines:int -> write:bool -> seq:bool -> nvm:bool -> outcome
(** Demand access to the [lines] contiguous cache lines starting at the
    given address (a single line is a run of 1): each line is looked up
    and filled on miss, marked dirty on writes and tagged with its
    backing space.  Returns the {e first} line's outcome (the only one
    the latency charge depends on).  Dirty lines evicted by the fills
    accumulate in the run buffer — query with {!run_wb_count} /
    {!run_wb_nvm} / {!run_wb_seq}; the caller charges the device.  The
    buffer stays valid until the next {!access} or {!prefetch}.
    Allocation-free after the buffer warms up. *)

val prefetch : t -> int -> nvm:bool -> bool
(** Software prefetch: inserts (or marks) the line so the next demand
    access reports [Prefetched_hit].  Returns whether the line was
    actually fetched (false = already resident, no device traffic).  A
    dirty eviction forced by the fill is left in the run buffer, as for
    {!access}. *)

val run_wb_count : t -> int
val run_wb_nvm : t -> int -> bool
val run_wb_seq : t -> int -> bool
(** [run_wb_seq t i]: the [i]-th evicted line was dirtied by streaming
    writes (it drains at the sequential rate). *)

val line_dirty : t -> int -> bool
(** Pure residency query: the line containing the address is resident
    and dirty (its latest bytes live only in the cache).  Touches no LRU
    state — safe to call without perturbing the simulation. *)

val clear : t -> unit

val hits : t -> int
val misses : t -> int
val prefetch_hits : t -> int
val prefetch_issued : t -> int
val writebacks : t -> int
val miss_rate : t -> float
