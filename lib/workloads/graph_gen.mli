(** Object-graph generation for one mutation cycle: materializes the live
    population in eden (dead allocations are bump-pointer gaps), wires it
    into chains and trees anchored at remembered-set slots or roots, and
    adds duplicate incoming references.  See the implementation header.

    Generation is {!shape} (every PRNG draw, no heap) followed by
    {!instantiate} (placement onto a heap); {!generate} is the two in
    sequence.  A shape does not depend on the GC configuration or on
    placement, so one shape can be instantiated under any of them. *)

type stats = {
  live_objects : int;
  live_bytes : int;
  arrays : int;
  chains : int;
  trees : int;
  remset_slots : int;
  root_slots : int;
  eden_regions : int;
}

type shape
(** One cycle's live graph as flat int arrays: per-object size, eden
    position and field range in eden order, fields as null / object index
    / holder index, remset anchors as (holder slot, object) in push order,
    roots in order, and the cycle's {!stats}. *)

val shape :
  profile:App_profile.t -> rng:Simstats.Prng.t -> holders:int -> shape
(** Draw one cycle's graph.  [holders] is the old-space holder count at
    the start of the cycle ({!Old_space.holder_count}). *)

val instantiate :
  heap:Simheap.Heap.t -> old_pool:Old_space.t -> shape -> stats
(** Place a shape.  The caller must have reset the roots
    ([Heap.clear_roots]) and the old-space holder pool
    ([Old_space.reset_cycle]) for the new cycle, and the pool must hold the
    holder count the shape was drawn with ([Invalid_argument] otherwise).
    Fails if the heap runs out of free regions for eden. *)

val generate :
  heap:Simheap.Heap.t ->
  profile:App_profile.t ->
  rng:Simstats.Prng.t ->
  old_pool:Old_space.t ->
  stats
(** [instantiate (shape ...)] with the pool's current holder count. *)
