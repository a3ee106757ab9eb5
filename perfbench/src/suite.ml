(* The benchmark's workloads, and one pass of each: the workload's fixed
   work, run through the same public entry points the CLI uses.

   A cell workload is a Runner sweep ([with_telemetry] around
   [parallel_cells] around [execute], as [nvmgc_cli fig] runs it, so the
   verifier, the recorder and the exec pool are all measured).  A
   campaign workload is a series of one-case [Fuzz.run] and
   [Fuzz.run_crash] campaigns.  A unit is one cell or one fuzz case; the
   benchmark times each unit from outside, digests its simulated output
   and adds its exact simulated counts to the pass's. *)

module R = Experiments.Runner
module P = Workloads.App_profile
module Fuzz = Simcheck.Fuzz

type variant = {
  setup : R.setup;
  threads : int option;  (** [None] = the options' default (28) *)
  seed_offset : int;  (** added to the workload seed for this cell *)
}

type cells = {
  gc_scale : float;
  verify : bool;
  apps : P.t list;
  variants : variant list;
  gcs : P.t -> int option;  (** per-app GC count; [None] = gc_scale's *)
}

type kind =
  | Cells of cells
  | Campaigns of { fuzz_cases : int; crash_cases : int }

type t = { name : string; jobs : int; kind : kind }

let variant ?threads ?(seed_offset = 0) setup = { setup; threads; seed_offset }

let fig5_setups =
  [ R.All_opts; R.Write_cache_only; R.Vanilla; R.Vanilla_dram; R.Young_gen_dram ]

(* Long-pauses GC counts, chosen so every cell costs about the same host
   time (150-230 ms on the 2-core Xeon this was tuned on): a page-rank
   pause copies ~60k objects, a naive-bayes pause ~300.  Equal cells keep
   the unit-time tail off the boundary between two apps. *)
let long_pause_gcs =
  [ ("naive-bayes", 48); ("als", 40); ("akka-uct", 16); ("page-rank", 1) ]

let names = [ "grid-verified"; "scaling-sweep"; "long-pauses"; "fuzz-crash" ]

let find name =
  match name with
  | "grid-verified" ->
      Some
        {
          name;
          jobs = 1;
          kind =
            Cells
              {
                gc_scale = 0.05;
                verify = true;
                apps = Workloads.Apps.all;
                variants = List.map variant fig5_setups;
                gcs = (fun _ -> None);
              };
        }
  | "scaling-sweep" ->
      Some
        {
          name;
          jobs = 2;
          kind =
            Cells
              {
                gc_scale = 0.05;
                verify = false;
                apps = Workloads.Apps.all;
                variants =
                  List.concat_map
                    (fun s ->
                      List.map
                        (fun threads -> variant ~threads s)
                        Experiments.Fig13_scalability.thread_counts)
                    Experiments.Fig13_scalability.setups;
                gcs = (fun _ -> None);
              };
        }
  | "long-pauses" ->
      Some
        {
          name;
          jobs = 1;
          kind =
            Cells
              {
                gc_scale = 1.0;
                verify = false;
                apps = List.map (fun (a, _) -> Workloads.Apps.find a) long_pause_gcs;
                variants =
                  List.concat_map
                    (fun k ->
                      List.map
                        (variant ~seed_offset:(k * 7919))
                        [ R.Vanilla; R.All_opts ])
                    [ 0; 1; 2 ];
                gcs = (fun (p : P.t) -> List.assoc_opt p.P.name long_pause_gcs);
              };
        }
  | "fuzz-crash" ->
      Some
        {
          name;
          jobs = 1;
          kind = Campaigns { fuzz_cases = 500; crash_cases = 300 };
        }
  | _ -> None

let units_per_pass (w : t) =
  match w.kind with
  | Cells c -> List.length c.apps * List.length c.variants
  | Campaigns { fuzz_cases; crash_cases } -> fuzz_cases + crash_cases

(* The smallest unit of the workload's kind, run before the first timed
   pass: one 1-GC cell, or one fuzz case and one crash case. *)
let warmup (w : t) =
  match w.kind with
  | Cells c ->
      {
        w with
        kind =
          Cells
            {
              c with
              apps = [ List.hd c.apps ];
              variants = [ List.hd c.variants ];
              gcs = (fun _ -> Some 1);
            };
      }
  | Campaigns _ -> { w with kind = Campaigns { fuzz_cases = 1; crash_cases = 1 } }

(* ------------------------------------------------------------------ *)
(* Units *)

(* Exact simulated counts of a unit, in a fixed order. *)
let counter_names =
  [
    "pauses"; "objects_copied"; "bytes_copied"; "refs_processed"; "steals";
    "hm_installs"; "hm_hits"; "hm_fallbacks"; "async_flushes"; "sync_flushes";
    "pause_ns"; "idle_ns"; "llc_hits"; "llc_misses"; "prefetch_hits";
    "prefetch_issued"; "nvm_read_bytes"; "nvm_write_bytes";
    "nvm_queue_wait_ns"; "live_objects_generated"; "cases"; "variant_runs";
    "crash_probes"; "failures";
  ]

let zero_counts = List.map (fun n -> (n, 0.0)) counter_names

let add_counts a b =
  List.map2
    (fun (n, x) (n', y) ->
      assert (n = n');
      (n, x +. y))
    a b

let count name counts = List.assoc name counts

let counts ~(pauses : Nvmgc.Gc_stats.pause list) ~memory ~live ~cases
    ~variant_runs ~crash_probes ~failures =
  let sum f = List.fold_left (fun acc p -> acc +. f p) 0.0 pauses in
  let int f = sum (fun p -> float_of_int (f p)) in
  let mem f = match memory with Some m -> f m | None -> 0.0 in
  let llc f = mem (fun m -> float_of_int (f (Memsim.Memory.llc m))) in
  let nvm f = mem (fun m -> f (Memsim.Memory.snapshot m)) in
  let open Nvmgc.Gc_stats in
  [
    ("pauses", float_of_int (List.length pauses));
    ("objects_copied", int (fun p -> p.objects_copied));
    ("bytes_copied", int (fun p -> p.bytes_copied));
    ("refs_processed", int (fun p -> p.refs_processed));
    ("steals", int (fun p -> p.steals));
    ("hm_installs", int (fun p -> p.header_map_installs));
    ("hm_hits", int (fun p -> p.header_map_hits));
    ("hm_fallbacks", int (fun p -> p.header_map_fallbacks));
    ("async_flushes", int (fun p -> p.async_flushes));
    ("sync_flushes", int (fun p -> p.sync_flushes));
    ("pause_ns", sum (fun p -> p.pause_ns));
    ("idle_ns", sum (fun p -> p.idle_ns));
    ("llc_hits", llc Memsim.Llc.hits);
    ("llc_misses", llc Memsim.Llc.misses);
    ("prefetch_hits", llc Memsim.Llc.prefetch_hits);
    ("prefetch_issued", llc Memsim.Llc.prefetch_issued);
    ("nvm_read_bytes", nvm (fun s -> s.Memsim.Memory.nvm_read_bytes));
    ("nvm_write_bytes", nvm (fun s -> s.Memsim.Memory.nvm_write_bytes));
    ( "nvm_queue_wait_ns",
      mem (fun m -> snd (Memsim.Memory.pipe_stats m Memsim.Access.Nvm)) );
    ("live_objects_generated", float_of_int live);
    ("cases", float_of_int cases);
    ("variant_runs", float_of_int variant_runs);
    ("crash_probes", float_of_int crash_probes);
    ("failures", float_of_int failures);
  ]

type unit_result = {
  ms : float;  (** host wall milliseconds *)
  error : string option;  (** [None] = the unit passed *)
  sim : Digest.t;  (** digest of the unit's simulated output *)
  create_s : float array;
      (** traced cells: seconds in the heap, memory and collector
          constructors, timed by a replica of the cell's construction *)
  gc_s : float;  (** simulated GC seconds of a cell *)
}

let no_create = [| 0.0; 0.0; 0.0 |]
let now = Unix.gettimeofday

(* A unit returns its result and its exact simulated counts. *)
let failed_unit ~t0 e =
  ( {
      ms = (now () -. t0) *. 1e3;
      error = Some (Printexc.to_string e);
      sim = Digest.string ("failed: " ^ Printexc.to_string e);
      create_s = no_create;
      gc_s = nan;
    },
    zero_counts )

(* Time the three per-cell constructors with the arguments
   [Runner.execute] hands them for this cell; the objects are dropped. *)
let construct options (app : P.t) v =
  let nvm, dram = Memsim.Access.(Nvm, Dram) in
  let preset, heap_space, young_space =
    match v.setup with
    | R.Vanilla -> (`Vanilla, nvm, None)
    | R.Write_cache_only -> (`Write_cache, nvm, None)
    | R.All_opts -> (`All, nvm, None)
    | R.Vanilla_dram -> (`Vanilla, dram, None)
    | R.Young_gen_dram -> (`Vanilla, nvm, Some dram)
    | R.Young_dram_plus_opts -> (`All, nvm, Some dram)
  in
  let threads = Option.value v.threads ~default:options.R.threads in
  let config = Workloads.Apps.gc_config app ~preset ~threads in
  let config =
    { config with Nvmgc.Gc_config.verify = config.Nvmgc.Gc_config.verify && options.R.verify }
  in
  let timed f =
    let t0 = now () in
    let x = f () in
    (x, now () -. t0)
  in
  let heap, heap_s =
    timed (fun () -> Simheap.Heap.create (P.heap_config ~heap_space ?young_space app))
  in
  let memory, memory_s =
    timed (fun () -> Memsim.Memory.create (P.memory_config app))
  in
  let _gc, gc_s = timed (fun () -> Nvmgc.Young_gc.create ~heap ~memory config) in
  [| heap_s; memory_s; gc_s |]

let run_cell ~probe c options app v =
  let options = { options with R.seed = options.R.seed + v.seed_offset } in
  let create_s = if probe then construct options app v else no_create in
  let t0 = now () in
  match R.execute ?threads:v.threads ?gcs:(c.gcs app) options app v.setup with
  | run ->
      let ms = (now () -. t0) *. 1e3 in
      let r = run.R.result in
      let pauses = r.Workloads.Mutator.pauses in
      ( {
          ms;
          error = None;
          sim =
            Digest.string
              (Marshal.to_string
                 (r.Workloads.Mutator.app_ns, r.Workloads.Mutator.gc_ns,
                  r.Workloads.Mutator.end_ns, pauses)
                 [ Marshal.No_sharing ]);
          create_s;
          gc_s = R.gc_seconds run;
        },
        counts
          ~pauses:(List.map (fun p -> p.Workloads.Mutator.pause) pauses)
          ~memory:(Some run.R.memory)
          ~live:
            (List.fold_left
               (fun acc p ->
                 acc + p.Workloads.Mutator.graph.Workloads.Graph_gen.live_objects)
               0 pauses)
          ~cases:0 ~variant_runs:0 ~crash_probes:0 ~failures:0 )
  | exception e ->
      let u, c = failed_unit ~t0 e in
      ({ u with create_s }, c)

let campaign_seed ~seed ~crash i =
  (seed * 1_000_003) + (if crash then 500_000 else 0) + i

let run_case ~crash seed =
  let t0 = now () in
  match
    if crash then Fuzz.run_crash ~cases:1 ~seed () else Fuzz.run ~cases:1 ~seed ()
  with
  | report ->
      let pauses =
        List.concat_map
          (fun (s : Fuzz.variant_summary) -> s.Fuzz.pauses)
          report.Fuzz.summaries
      in
      let failures = List.length report.Fuzz.failures in
      ( {
          ms = (now () -. t0) *. 1e3;
          error = (if Fuzz.ok report then None else Some (Fuzz.report_to_string report));
          sim =
            Digest.string
              (Marshal.to_string
                 (report.Fuzz.cases_run, report.Fuzz.summaries, failures)
                 [ Marshal.No_sharing ]);
          create_s = no_create;
          gc_s = nan;
        },
        counts ~pauses ~memory:None ~live:0 ~cases:report.Fuzz.cases_run
          ~variant_runs:(List.length pauses)
          ~crash_probes:(if crash then List.length pauses else 0)
          ~failures )
  | exception e -> failed_unit ~t0 e

(* ------------------------------------------------------------------ *)
(* Host-time attribution by the program's own Hostprof phases *)

type profile = {
  samples : int;  (** SIGPROF samples in the pass *)
  phase_samples : (string * int) list;
  phase_words : (string * float) list;  (** exact minor words *)
}

(* Run [f] under a 1 kHz SIGPROF sampler with exact per-phase minor-word
   attribution armed.  Hostprof's phase register is process-global, so
   this is only meaningful when [f] runs on one domain. *)
let profiled f =
  let module H = Simstats.Hostprof in
  let arm interval =
    ignore
      (Unix.setitimer Unix.ITIMER_PROF
         { Unix.it_interval = interval; it_value = interval })
  in
  let saved = Sys.signal Sys.sigprof (Sys.Signal_handle (fun _ -> H.tick ())) in
  H.reset ();
  H.set_alloc_tracking true;
  arm 0.001;
  let x =
    Fun.protect
      ~finally:(fun () ->
        arm 0.0;
        H.set_alloc_tracking false;
        Sys.set_signal Sys.sigprof saved)
      f
  in
  ( x,
    {
      samples = H.total ();
      phase_samples = H.samples ();
      phase_words = List.map (fun (n, w, _) -> (n, w)) (H.alloc_samples ());
    } )

(* ------------------------------------------------------------------ *)
(* Passes *)

type pass = {
  wall_s : float;
  cpu_s : float;
  jobs : int;  (** effective pool size *)
  units : unit_result array;
  counts : (string * float) list;  (** exact simulated counts, summed *)
  digest : string;
  write_amp : float;  (** the recorder's NVM write amplification; nan = none *)
  profile : profile option;
}

let digest units =
  Digest.to_hex
    (Digest.string
       (String.concat ""
          (Array.to_list (Array.map (fun u -> u.sim) units))))

let cells_pass ~probe c ~seed ~jobs =
  let options =
    { R.default_options with seed; gc_scale = c.gc_scale; verify = c.verify; jobs }
  in
  R.with_telemetry options (fun () ->
      let rows =
        R.parallel_cells options ~setups:c.variants
          ~f:(fun app v -> run_cell ~probe c options app v)
          c.apps
      in
      let write_amp =
        match Nvmtrace.Hooks.recorder () with
        | Some r -> Nvmtrace.Recorder.write_amplification r
        | None -> nan
      in
      (List.concat_map snd rows, write_amp))

let campaigns_pass ~seed ~fuzz_cases ~crash_cases =
  let cases crash n =
    List.init n (fun i -> run_case ~crash (campaign_seed ~seed ~crash i))
  in
  (cases false fuzz_cases @ cases true crash_cases, nan)

(* One pass of [w]'s fixed work.  [traced] adds the constructor probes
   and, on a single domain, the Hostprof attribution. *)
let run_pass ?(traced = false) ?jobs (w : t) ~seed =
  let jobs = Exec.Pool.effective_jobs (Option.value jobs ~default:w.jobs) in
  let work () =
    match w.kind with
    | Cells c -> cells_pass ~probe:traced c ~seed ~jobs
    | Campaigns { fuzz_cases; crash_cases } ->
        campaigns_pass ~seed ~fuzz_cases ~crash_cases
  in
  let t0 = now () and c0 = Host.cpu_s () in
  let (results, write_amp), profile =
    if traced && jobs = 1 then
      let x, p = profiled work in
      (x, Some p)
    else (work (), None)
  in
  let wall_s = now () -. t0 and cpu_s = Host.cpu_s () -. c0 in
  let units = Array.of_list (List.map fst results) in
  let counts = List.fold_left (fun acc (_, c) -> add_counts acc c) zero_counts results in
  { wall_s; cpu_s; jobs; units; counts; digest = digest units; write_amp; profile }

let unit_failures p =
  Array.fold_left (fun k u -> if u.error = None then k else k + 1) 0 p.units

(* Figure 5's headline ratios from a grid-verified pass (cells are
   app-major over [fig5_setups]: +all, +writecache, vanilla, ...). *)
let fig5_ratios (w : t) (p : pass) =
  match w.kind with
  | Cells c when c.variants = List.map variant fig5_setups ->
      let k = List.length fig5_setups in
      let napps = Array.length p.units / k in
      let mean f =
        let s = ref 0.0 in
        for i = 0 to napps - 1 do
          s := !s +. f (fun j -> p.units.((i * k) + j).gc_s)
        done;
        !s /. float_of_int napps
      in
      Some (mean (fun g -> g 2 /. g 0), mean (fun g -> g 2 /. g 1))
  | Cells _ | Campaigns _ -> None
