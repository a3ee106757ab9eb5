(** Reference oracle collector: a single-threaded semispace reachability
    copy (no write cache, header map, or stealing) over a pre-pause
    snapshot, diffed against the production engine's result.

    Usage: call {!snapshot} when the pause begins and {!diff} once
    {!Nvmgc.Young_gc.collect} has returned; {!Hooks} wires exactly
    this. *)

type snapshot

val snapshot : Nvmgc.Young_gc.t -> snapshot
(** At the start of a pause, before any evacuation: compute the oracle's
    closure from the anchor set (collection-set remset slots + non-null
    roots) and record every survivor's size and classified fields. *)

val diff : snapshot -> Nvmgc.Young_gc.t -> Nvmgc.Gc_stats.pause -> string list
(** Compare the post-pause heap and pause counters against the oracle's
    ground truth: surviving object set, sizes, per-field reference graph,
    anchor retargeting, and copy totals.  Empty list = exact match;
    otherwise object mismatches in ascending id order, then anchors,
    then counters, capped at 50 plus a suppression line. *)
