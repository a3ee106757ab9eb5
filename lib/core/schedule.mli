(** Pluggable scheduling decisions for the evacuation engine.

    A schedule replaces each discretionary choice of {!Evacuation} — next
    thread, steal victim, cache-region grabs, header-map fallback timing,
    asynchronous-flush readiness — with its own, restricted to
    semantics-preserving alternatives.  Used by [lib/simcheck] to fuzz
    GC-thread interleavings; without an installed schedule the engine
    keeps its deterministic min-clock policy.  The schedule is the
    engine's only injection seam: crash points and the mutation-testing
    [tamper] ride on it too. *)

(** Deliberate flush-protocol violations for mutation-testing the
    recovery oracle; injected at most once per pause. *)
type tamper =
  | Tamper_early_ready
      (** answer one Keep decision of the §4.2 readiness protocol with
          Ready: retire and flush a pair while pending reference updates
          can still target it *)
  | Tamper_drop_flush
      (** report a flush complete without writing the bytes to NVM *)

type t = {
  pick_thread : runnable:int array -> int;
      (** index into [runnable] (thread ids able to pop or steal,
          ascending); out-of-range values are clamped by the engine.
          The engine reuses the array: it is valid only during the call. *)
  pick_victim : thief:int -> victims:int array -> int;
      (** index into [victims] (thread ids with >= 2 stacked items,
          ascending, excluding the thief); clamped and reused likewise *)
  defer_region_grab : tid:int -> bool;
      (** copy directly to NVM instead of taking a fresh cache pair *)
  force_hm_fallback : tid:int -> bool;
      (** treat this header-map install as [Full] (NVM-header fallback) *)
  defer_async_flush : tid:int -> bool;
      (** leave this flush-ready region to the write-only sub-phase *)
  crash : step:int -> bool;
      (** kill the simulation at crash point [step] (numbered 1, 2, ...
          in consultation order) by raising {!Evacuation.Crashed} — the
          one deliberately destructive decision, used by the
          crash-consistency fuzzer; consulted with a counter and no
          PRNG, so crash wrappers leave the underlying schedule's
          decision stream untouched *)
  tamper : tamper option;
      (** [Some]: inject this flush-protocol violation once per pause
          (mutation-testing the recovery oracle) *)
}

val default : t
(** Lowest-id choices, nothing deferred, forced or tampered.  Interleaves
    differently from the min-clock engine but must agree semantically. *)
