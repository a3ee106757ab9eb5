(** The schedule seam: every discretionary decision the evacuation engine
    makes — which thread runs next, whom to steal from, when to grab a
    cache region, when the header map "fills", when a ready region is
    flushed — funnels through this record, so the simulated GC-thread
    interleaving itself becomes an input.

    The default engine (no schedule installed) keeps the deterministic
    min-clock policy; a schedule replaces each decision with its own,
    drawn from {e semantics-preserving alternatives} only:

    - [pick_thread] chooses among threads that can make progress (pop or
      steal), so any choice advances the traversal;
    - [pick_victim] chooses among victims with at least two stacked items
      (the engine's own stealability rule);
    - [defer_region_grab] makes a thread copy directly to NVM instead of
      taking a fresh write-cache pair — always a legal fallback (it is
      what happens when the cache budget runs out);
    - [force_hm_fallback] makes a header-map install behave as if the
      probe bound were exhausted (Algorithm 1's [Full]), exercising the
      NVM-header fallback at arbitrary objects;
    - [defer_async_flush] keeps a flush-ready region for the final
      write-only sub-phase (the §4.2 tracker is already conservative;
      deferring is always correct).

    Whatever a schedule decides, the surviving object graph must match
    the oracle collector — that is precisely what [lib/simcheck] fuzzes.
    Timing and statistics may (and do) differ between schedules.  Only
    [crash] and [tamper] are deliberately destructive: they test the
    crash-recovery oracle. *)

(** Deliberate flush-protocol violations (see the interface). *)
type tamper = Tamper_early_ready | Tamper_drop_flush

type t = {
  pick_thread : runnable:int array -> int;
      (** index into [runnable] (thread ids able to pop or steal right
          now, ascending); the engine clamps out-of-range values *)
  pick_victim : thief:int -> victims:int array -> int;
      (** index into [victims] (thread ids with >= 2 stacked items,
          ascending, never the thief); clamped likewise *)
  defer_region_grab : tid:int -> bool;
      (** [true]: do not take a fresh write-cache pair for this copy *)
  force_hm_fallback : tid:int -> bool;
      (** [true]: install this forwarding pointer in the NVM header as
          if {!Header_map.put} had returned [Full] *)
  defer_async_flush : tid:int -> bool;
      (** [true]: leave this flush-ready region to the write-only
          sub-phase *)
  crash : step:int -> bool;
      (** [true]: kill the simulation at this crash point.  Unlike every
          other decision this one is deliberately destructive: the
          engine raises {!Evacuation.Crashed} mid-pause, modeling a
          power failure.  Crash points are numbered 1, 2, ... in
          consultation order (scheduling-loop iterations and the
          stages of each region flush); the engine passes the current
          number and never consults any PRNG here, so wrapping a
          schedule with a crash predicate does not perturb the
          decision stream of the underlying schedule. *)
  tamper : tamper option;
      (** [Some]: inject this violation once per pause (a deliberate
          engine bug the recovery oracle must catch) *)
}

(** The identity schedule: lowest-id runnable thread, lowest-id victim,
    never defers or forces anything.  Interleavings differ from the
    min-clock default, but semantics must not. *)
let default =
  {
    pick_thread = (fun ~runnable:_ -> 0);
    pick_victim = (fun ~thief:_ ~victims:_ -> 0);
    defer_region_grab = (fun ~tid:_ -> false);
    force_hm_fallback = (fun ~tid:_ -> false);
    defer_async_flush = (fun ~tid:_ -> false);
    crash = (fun ~step:_ -> false);
    tamper = None;
  }
