(* From passes to named metrics: the end-to-end set of an untraced run,
   the per-layer set of a traced run, and the exact simulated counts
   both print.  Each layer metric names the module it measures. *)

(* Every run makes at least this many passes; the tail percentile is
   chosen for the samples that guarantees. *)
let min_passes = 2

(* Set-up is repeated this many times and the median kept. *)
let setup_reps = 25

(* [p] with every host time scaled to reference speed, given the
   reference kernel's time [ref_s] around it (see {!Host.reference_kernel}). *)
let at_reference_speed (p : Suite.pass) ~ref_s =
  let k = Host.reference_nominal_s /. ref_s in
  {
    p with
    Suite.wall_s = p.Suite.wall_s *. k;
    cpu_s = p.Suite.cpu_s *. k;
    units =
      Array.map
        (fun u ->
          { u with Suite.ms = u.Suite.ms *. k; create_s = Array.map (( *. ) k) u.Suite.create_s })
        p.Suite.units;
  }

let medianf f ps = Metric.median (List.map f ps)
let sum_units f p = Array.fold_left (fun s u -> s +. f u) 0.0 p.Suite.units
let busy_s p = sum_units (fun u -> u.Suite.ms /. 1e3) p

let end_to_end w passes ~setup_s =
  let planned = min_passes * Suite.units_per_pass w in
  let ms = List.concat_map (fun p -> Array.to_list (Array.map (fun u -> u.Suite.ms) p.Suite.units)) passes in
  let tail = Metric.tail ~planned ms in
  let cpu = medianf (fun p -> p.Suite.cpu_s) passes in
  let objects = Suite.count "objects_copied" (List.hd passes).Suite.counts in
  let n = List.length passes in
  let ms_note = Printf.sprintf "median of %d units" (List.length ms) in
  [
    (Metric.v "wall_s" "s" (medianf (fun p -> p.Suite.wall_s) passes),
     Printf.sprintf "median of %d passes" n);
    (Metric.v "cpu_s" "s" cpu, Printf.sprintf "median of %d passes, all domains" n);
    (Metric.v "setup_s" "s" setup_s, "process start + warm-up");
    (Metric.v "peak_rss_mb" "MB" (Host.peak_rss_mb ()), "VmHWM");
    (Metric.v "objects_per_cpu_s" "1/s" (objects /. cpu),
     Printf.sprintf "%.0f simulated objects per pass" objects);
    (Metric.v "unit_ms_p50" "ms" (Metric.median ms), ms_note);
    (Metric.v "unit_ms_tail" "ms" tail.Metric.value,
     Format.asprintf "%a over %d samples, %d beyond" Metric.pp_pct tail.Metric.pct
       tail.Metric.samples tail.Metric.beyond);
  ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* Exact simulated counts of one pass, by layer. *)
let sim_counts (p : Suite.pass) =
  let c = p.Suite.counts in
  let g n = Suite.count n c in
  [
    Metric.v "nvmgc.pauses" "count" (g "pauses");
    Metric.v "nvmgc.objects_copied" "count" (g "objects_copied");
    Metric.v "nvmgc.bytes_copied" "B" (g "bytes_copied");
    Metric.v "nvmgc.refs_processed" "count" (g "refs_processed");
    Metric.v "nvmgc.steals" "count" (g "steals");
    Metric.v "nvmgc.hm_hit_ratio" "ratio" (ratio (g "hm_hits") (g "hm_installs" +. g "hm_hits"));
    Metric.v "nvmgc.hm_fallbacks" "count" (g "hm_fallbacks");
    Metric.v "nvmgc.async_flushes" "count" (g "async_flushes");
    Metric.v "nvmgc.sync_flushes" "count" (g "sync_flushes");
    Metric.v "nvmgc.sim_pause_s" "s" (g "pause_ns" /. 1e9);
    Metric.v "nvmgc.sim_idle_s" "s" (g "idle_ns" /. 1e9);
    Metric.v "memsim.llc_hit_ratio" "ratio" (ratio (g "llc_hits") (g "llc_hits" +. g "llc_misses"));
    Metric.v "memsim.prefetch_useful_ratio" "ratio" (ratio (g "prefetch_hits") (g "prefetch_issued"));
    Metric.v "memsim.nvm_read_bytes" "B" (g "nvm_read_bytes");
    Metric.v "memsim.nvm_write_bytes" "B" (g "nvm_write_bytes");
    Metric.v "memsim.nvm_queue_wait_s" "s" (g "nvm_queue_wait_ns" /. 1e9);
    Metric.v "workloads.live_objects_generated" "count" (g "live_objects_generated");
    Metric.v "nvmtrace.write_amplification" "ratio"
      (if Float.is_nan p.Suite.write_amp then 0.0 else p.Suite.write_amp);
    Metric.v "simcheck.cases" "count" (g "cases");
    Metric.v "simcheck.variant_runs" "count" (g "variant_runs");
    Metric.v "simcheck.crash_probes" "count" (g "crash_probes");
    Metric.v "simcheck.failures" "count" (g "failures");
  ]

let per_layer w ~untraced ~traced ~(profiles : Suite.profile list) =
  let share phase (pr : Suite.profile) =
    ratio
      (float_of_int (Option.value (List.assoc_opt phase pr.Suite.phase_samples) ~default:0))
      (float_of_int pr.Suite.samples)
  in
  let words phase (pr : Suite.profile) =
    Option.value (List.assoc_opt phase pr.Suite.phase_words) ~default:0.0
  in
  let prof f = Metric.median (List.map f profiles) in
  let jobs p = float_of_int p.Suite.jobs in
  let create i = medianf (fun p -> sum_units (fun u -> u.Suite.create_s.(i)) p) traced in
  [
    Metric.v "experiments.cells" "count" (float_of_int (Suite.units_per_pass w));
    Metric.v "experiments.cell_busy_s" "s" (medianf busy_s traced);
    Metric.v "exec.jobs_effective" "count" (jobs (List.hd traced));
    Metric.v "exec.busy_frac" "frac" (medianf (fun p -> busy_s p /. (p.Suite.wall_s *. jobs p)) traced);
    Metric.v "exec.idle_s" "s" (medianf (fun p -> (p.Suite.wall_s *. jobs p) -. busy_s p) traced);
    Metric.v "simheap.create_s" "s" (create 0);
    Metric.v "memsim.create_s" "s" (create 1);
    Metric.v "nvmgc.create_s" "s" (create 2);
    Metric.v "workloads.graphgen_share" "frac" (prof (share "workload.graphgen"));
    Metric.v "workloads.graphgen_minor_words" "words" (prof (words "workload.graphgen"));
    Metric.v "nvmgc.evacuate_share" "frac" (prof (share "gc.evacuate"));
    Metric.v "nvmgc.evacuate_minor_words" "words" (prof (words "gc.evacuate"));
    Metric.v "memsim.access_share" "frac" (prof (share "memsim.access"));
    Metric.v "memsim.llc_share" "frac" (prof (share "memsim.llc"));
    Metric.v "memsim.access_minor_words" "words" (prof (words "memsim.access"));
    Metric.v "verify.share" "frac" (prof (share "verify"));
    Metric.v "verify.minor_words" "words" (prof (words "verify"));
  ]
  @ sim_counts (List.hd traced)
  @ [
      Metric.v "trace.overhead_frac" "frac"
        (ratio (medianf (fun p -> p.Suite.wall_s) traced) (medianf (fun p -> p.Suite.wall_s) untraced) -. 1.0);
    ]

