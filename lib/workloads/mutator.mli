(** The workload driver: alternates application phases with young GC
    pauses on the simulated clock.  App phases are modelled coarsely (CPU
    part + device-scaled memory-stall part) and their traffic is injected
    into the memory system so the bandwidth traces show both app and GC
    intervals. *)

type pause_record = {
  start_ns : float;
  pause : Nvmgc.Gc_stats.pause;
  graph : Graph_gen.stats;
}

type result = {
  app_ns : float;  (** accumulated non-GC execution time *)
  gc_ns : float;
  end_ns : float;
  pauses : pause_record list;  (** in execution order *)
}

val gc_share : result -> float

val per_access_ns :
  Memsim.Device.t -> seq_frac:float -> write_frac:float -> float
(** Blended per-access stall cost of an app phase on a device. *)

val app_phase_ns : App_profile.t -> device:Memsim.Device.t -> float
(** Duration of one app phase on the given heap device. *)

val run :
  heap:Simheap.Heap.t ->
  memory:Memsim.Memory.t ->
  gc:Nvmgc.Young_gc.t ->
  profile:App_profile.t ->
  seed:int ->
  gcs:int ->
  result
(** Run [gcs] mutation/GC cycles; deterministic in [seed].  Each cycle's
    graph is {!Graph_gen.instantiate} of a shape that is drawn, or reused
    from this domain's memo when {!share_shapes} armed it. *)

val share_shapes : unit -> unit
(** Arm this domain's shape memo: later runs on the domain reuse the
    shapes of the most recent (profile, seed) instead of drawing them
    again.  Results are identical either way.  Idempotent. *)

val drop_shapes : unit -> unit
(** Disarm this domain's shape memo and release its shapes. *)

val run_fresh :
  ?heap_space:Memsim.Access.space ->
  ?young_space:Memsim.Access.space ->
  ?trace:bool ->
  ?llc_scale:float ->
  ?nvm:Memsim.Device.t ->
  ?dram:Memsim.Device.t ->
  ?gcs:int ->
  profile:App_profile.t ->
  seed:int ->
  Nvmgc.Gc_config.t ->
  result * Nvmgc.Young_gc.t * Memsim.Memory.t * Simheap.Heap.t
(** Build heap + memory + collector for a profile and run it.  Defaults:
    NVM heap, no tracing, the profile's GC count. *)
