(** The workload driver: alternates application phases with young GC
    pauses on the simulated clock.

    Application (non-GC) execution is modelled coarsely, as the paper's
    analysis does: its duration is a CPU part plus a memory-stall part that
    scales with the device's latency/bandwidth relative to DRAM, and its
    traffic is injected into the memory system so the bandwidth traces of
    Figures 2/3/7 show both app and GC intervals. *)

module P = App_profile

type pause_record = {
  start_ns : float;
  pause : Nvmgc.Gc_stats.pause;
  graph : Graph_gen.stats;
}

type result = {
  app_ns : float;  (** accumulated non-GC execution time *)
  gc_ns : float;  (** accumulated stop-the-world time *)
  end_ns : float;
  pauses : pause_record list;  (** in execution order *)
}

let gc_share r =
  if r.end_ns <= 0.0 then 0.0 else r.gc_ns /. (r.app_ns +. r.gc_ns)

(* Blended per-access stall cost of the app phase on a device. *)
let per_access_ns (d : Memsim.Device.t) ~seq_frac ~write_frac =
  let line = float_of_int Memsim.Llc.line_bytes in
  (* application code keeps ~4 loads in flight (MLP) *)
  let mlp = 4.0 in
  let read_rand =
    (d.Memsim.Device.read_latency_random_ns /. mlp)
    +. (line /. d.Memsim.Device.thread_bw_read_random)
  in
  let read_seq = line /. d.Memsim.Device.thread_bw_read_seq in
  let write_rand =
    (d.Memsim.Device.write_latency_ns /. mlp)
    +. (line /. d.Memsim.Device.thread_bw_write_random)
  in
  let write_seq = line /. d.Memsim.Device.thread_bw_write_seq in
  let read = (seq_frac *. read_seq) +. ((1.0 -. seq_frac) *. read_rand) in
  let write = (seq_frac *. write_seq) +. ((1.0 -. seq_frac) *. write_rand) in
  ((1.0 -. write_frac) *. read) +. (write_frac *. write)

(** Duration of one app phase on the heap's device, per the profile. *)
let app_phase_ns (profile : P.t) ~(device : Memsim.Device.t) =
  let base = profile.P.app_ms_between_gcs *. 1e6 in
  let stall d =
    per_access_ns d ~seq_frac:profile.P.app_seq_fraction
      ~write_frac:profile.P.app_write_fraction
  in
  let factor = stall device /. stall Memsim.Device.dram in
  (base *. (1.0 -. profile.P.app_mem_ratio))
  +. (base *. profile.P.app_mem_ratio *. factor)

(* Inject the app phase's traffic for traces/bandwidth accounting.  The
   byte volume is what the app would move in its DRAM-time budget; on a
   slower device the same bytes spread over the longer phase. *)
let record_app_traffic memory (profile : P.t) ~space ~from_ns ~until_ns =
  let base_s = profile.P.app_ms_between_gcs /. 1e3 in
  let bytes = profile.P.app_gbps_dram *. 1e9 *. base_s in
  let heap_share = 0.8 in
  (* code/stack/metadata traffic stays on DRAM even with an NVM heap *)
  let wf = profile.P.app_write_fraction in
  Memsim.Memory.record_background memory ~from_ns ~until_ns ~space
    ~read_bytes:(bytes *. heap_share *. (1.0 -. wf))
    ~write_bytes:(bytes *. heap_share *. wf);
  if space <> Memsim.Access.Dram then
    Memsim.Memory.record_background memory ~from_ns ~until_ns
      ~space:Memsim.Access.Dram
      ~read_bytes:(bytes *. (1.0 -. heap_share) *. (1.0 -. wf))
      ~write_bytes:(bytes *. (1.0 -. heap_share) *. wf)

(* Shape memo.  A cycle's shape is a function of (profile, run seed,
   cycle) alone (see Graph_gen), so the cells of a sweep that run one app
   under several configurations can draw it once.  Each domain keeps the
   shapes of its most recent (profile, seed); a domain draws and keeps
   nothing until [share_shapes] arms it, and [drop_shapes] disarms it. *)
type memo = {
  mutable key : (P.t * int) option;
  shapes : (int, Graph_gen.shape) Hashtbl.t;  (** by cycle *)
}

let memo_key : memo option Domain.DLS.key =
  Domain.DLS.new_key (fun () -> None)

let share_shapes () =
  if Option.is_none (Domain.DLS.get memo_key) then
    Domain.DLS.set memo_key (Some { key = None; shapes = Hashtbl.create 8 })

let drop_shapes () = Domain.DLS.set memo_key None

let same_key (p, s) (profile, seed) = s = seed && (p == profile || p = profile)

(* The shape of [cycle]: memoized when this domain shares shapes, drawn
   otherwise.  The caller splits the cycle's rng either way, so a hit
   leaves the run's generator where a draw would. *)
let shape_for ~profile ~seed ~cycle ~rng ~holders =
  match Domain.DLS.get memo_key with
  | None -> Graph_gen.shape ~profile ~rng ~holders
  | Some m -> (
      (match m.key with
      | Some k when same_key k (profile, seed) -> ()
      | Some _ | None ->
          m.key <- Some (profile, seed);
          Hashtbl.reset m.shapes);
      match Hashtbl.find_opt m.shapes cycle with
      | Some s -> s
      | None ->
          let s = Graph_gen.shape ~profile ~rng ~holders in
          Hashtbl.replace m.shapes cycle s;
          s)

(** Run [gcs] mutation/GC cycles of [profile] against an existing heap,
    memory system and collector.  Deterministic in [seed]. *)
let prof_graphgen = Simstats.Hostprof.register "workload.graphgen"

let run ~heap ~memory ~gc ~(profile : P.t) ~seed ~gcs =
  let rng = Simstats.Prng.create seed in
  let old_pool = Old_space.create heap in
  let device = Memsim.Memory.device memory (Simheap.Heap.young_space heap) in
  let now = ref 0.0 in
  let app_ns = ref 0.0 and gc_ns = ref 0.0 in
  let pauses = ref [] in
  for cycle = 1 to gcs do
    Simheap.Heap.clear_roots heap;
    Old_space.reset_cycle old_pool;
    let graph =
      let prof_prev = Simstats.Hostprof.enter prof_graphgen in
      let shape =
        shape_for ~profile ~seed ~cycle ~rng:(Simstats.Prng.split rng)
          ~holders:(Old_space.holder_count old_pool)
      in
      let g = Graph_gen.instantiate ~heap ~old_pool shape in
      Simstats.Hostprof.leave prof_prev;
      g
    in
    let phase = app_phase_ns profile ~device in
    record_app_traffic memory profile
      ~space:(Simheap.Heap.young_space heap)
      ~from_ns:!now
      ~until_ns:(!now +. phase);
    now := !now +. phase;
    app_ns := !app_ns +. phase;
    let start_ns = !now in
    let pause = Nvmgc.Young_gc.collect gc ~now_ns:start_ns in
    now := !now +. pause.Nvmgc.Gc_stats.pause_ns;
    gc_ns := !gc_ns +. pause.Nvmgc.Gc_stats.pause_ns;
    pauses := { start_ns; pause; graph } :: !pauses;
    (* stand-in for mixed GC: keep enough free regions for the next cycle *)
    Old_space.recycle old_pool
      ~keep_free:(P.young_regions profile + 8)
  done;
  {
    app_ns = !app_ns;
    gc_ns = !gc_ns;
    end_ns = !now;
    pauses = List.rev !pauses;
  }

(** Convenience: build heap + memory + collector for a profile and run it.
    [gc_config] chooses the collector/optimizations; [heap_space] and
    [young_space] choose placement (NVM heap by default). *)
let run_fresh ?(heap_space = Memsim.Access.Nvm) ?young_space ?(trace = false)
    ?(llc_scale = 1.0) ?nvm ?dram ?gcs ~(profile : P.t) ~seed
    (gc_config : Nvmgc.Gc_config.t) =
  let heap =
    Simheap.Heap.create (P.heap_config ~heap_space ?young_space profile)
  in
  let memory =
    Memsim.Memory.create (P.memory_config ~trace ~llc_scale ?nvm ?dram profile)
  in
  let gc = Nvmgc.Young_gc.create ~heap ~memory gc_config in
  let gcs = Option.value gcs ~default:profile.P.gcs_per_run in
  let result = run ~heap ~memory ~gc ~profile ~seed ~gcs in
  (result, gc, memory, heap)
