(* Tests for the workload layer: application profiles, graph generation,
   the old-space pool, the mutator driver, the Cassandra latency
   simulation and the prefetch micro-benchmark. *)

module P = Workloads.App_profile
module O = Simheap.Objmodel
module R = Simheap.Region
module H = Simheap.Heap

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Mutator-driven collections in this file verify every pause. *)
let () = Verify.Hooks.ensure_installed ()

(* ------------------------------------------------------------------ *)
(* Profiles                                                            *)

let test_apps_complete () =
  check_int "26 applications" 26 (List.length Workloads.Apps.all);
  let names = List.map (fun (p : P.t) -> p.P.name) Workloads.Apps.all in
  check_int "unique names" 26 (List.length (List.sort_uniq compare names));
  check_bool "sorted like Figure 5" true
    (names = List.sort compare names);
  check_int "22 Renaissance" 22 (List.length Workloads.Apps.renaissance_apps);
  check_int "4 Spark" 4 (List.length Workloads.Apps.spark_apps);
  check_int "6 Figure-1 apps" 6 (List.length Workloads.Apps.figure1_apps)

let test_apps_find () =
  let p = Workloads.Apps.find "page-rank" in
  check_bool "page-rank is Spark" true (p.P.suite = P.Spark);
  Alcotest.check_raises "unknown app"
    (Invalid_argument "Apps.find: unknown application \"nope\"") (fun () ->
      ignore (Workloads.Apps.find "nope"))

let test_profile_geometry () =
  List.iter
    (fun (p : P.t) ->
      check_bool "2048 heap regions (G1 default)" true
        (P.heap_regions p = 2048);
      check_bool "young fits in heap" true (p.P.young_bytes < p.P.heap_bytes);
      check_bool "live fits in young" true
        (P.live_bytes_per_gc p < p.P.young_bytes);
      check_bool "survival sane" true
        (p.P.survival_ratio > 0.0 && p.P.survival_ratio < 0.6))
    Workloads.Apps.all

let test_gc_config_sizes () =
  let p = Workloads.Apps.find "page-rank" in
  let c = Workloads.Apps.gc_config p ~preset:`All ~threads:28 in
  check_int "header map sized from profile" p.P.header_map_bytes
    c.Nvmgc.Gc_config.header_map_bytes;
  Alcotest.(check (option int)) "write cache limit from profile"
    (Some p.P.write_cache_bytes) c.Nvmgc.Gc_config.write_cache_limit_bytes;
  check_bool "+all has everything on" true
    (c.Nvmgc.Gc_config.write_cache && c.Nvmgc.Gc_config.header_map
   && c.Nvmgc.Gc_config.prefetch && c.Nvmgc.Gc_config.nt_flush);
  let v = Workloads.Apps.gc_config p ~preset:`Vanilla ~threads:28 in
  check_bool "vanilla has them off" true
    ((not v.Nvmgc.Gc_config.write_cache) && not v.Nvmgc.Gc_config.header_map);
  let ps = Workloads.Apps.gc_config p ~preset:`Vanilla_ps ~threads:28 in
  check_bool "vanilla PS has no prefetch" true
    (not ps.Nvmgc.Gc_config.prefetch);
  check_bool "PS uses LABs" true (ps.Nvmgc.Gc_config.lab_bytes < max_int)

(* ------------------------------------------------------------------ *)
(* Graph generation                                                    *)

let generate ?(seed = 1) (profile : P.t) =
  let heap = H.create (P.heap_config profile) in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create seed in
  let stats = Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool in
  (heap, old_pool, stats)

let test_graph_volume () =
  let profile = Workloads.Apps.find "reactors" in
  let _, _, stats = generate profile in
  let target = P.live_bytes_per_gc profile in
  check_bool
    (Printf.sprintf "live bytes near target (%d vs %d)"
       stats.Workloads.Graph_gen.live_bytes target)
    true
    (float_of_int stats.Workloads.Graph_gen.live_bytes
    > 0.9 *. float_of_int target
    && float_of_int stats.Workloads.Graph_gen.live_bytes
       < 1.3 *. float_of_int target);
  check_bool "has entries" true
    (stats.Workloads.Graph_gen.remset_slots + stats.Workloads.Graph_gen.root_slots > 0)

let test_graph_every_entry_reachable () =
  (* every live object must be reachable from roots or remset slots *)
  let profile = Workloads.Apps.find "reactors" in
  let heap, _, stats = generate profile in
  let visited = Hashtbl.create 256 in
  let rec visit addr =
    if
      addr <> Simheap.Layout.null
      && H.in_heap_range heap addr
      && not (Hashtbl.mem visited addr)
    then begin
      let o = H.find_obj heap addr in
      if o == R.dummy_obj then
        Alcotest.failf "dangling generated reference %d" addr;
      let region = H.region_of_addr heap addr in
      if region.R.kind = R.Eden then begin
        Hashtbl.add visited addr ();
        Array.iter visit o.O.fields
      end
    end
  in
  Simstats.Vec.iter (fun (r : O.root) -> visit r.O.target) (H.roots heap);
  H.iter_regions
    (fun region ->
      Simstats.Vec.iter
        (fun slot -> visit (O.slot_referent slot))
        region.R.remset)
    heap;
  check_int "all live objects reachable from entries"
    stats.Workloads.Graph_gen.live_objects (Hashtbl.length visited)

let test_graph_remsets_point_into_young () =
  let profile = Workloads.Apps.find "page-rank" in
  let heap, _, _ = generate profile in
  H.iter_regions
    (fun region ->
      Simstats.Vec.iter
        (fun slot ->
          let target = O.slot_referent slot in
          check_bool "remset target inside its region" true
            (R.contains region target);
          check_bool "remset region is young" true (region.R.kind = R.Eden))
        region.R.remset)
    heap

let test_graph_chain_shape () =
  (* chain-heavy profiles produce more chains than tree-heavy ones *)
  let chainy = Workloads.Apps.find "akka-uct" in
  let treey = Workloads.Apps.find "naive-bayes" in
  let _, _, s1 = generate chainy in
  let _, _, s2 = generate treey in
  check_bool "akka-uct is chain-heavy" true
    (float_of_int s1.Workloads.Graph_gen.chains
     /. float_of_int (s1.Workloads.Graph_gen.chains + s1.Workloads.Graph_gen.trees)
    > float_of_int s2.Workloads.Graph_gen.chains
      /. float_of_int (s2.Workloads.Graph_gen.chains + s2.Workloads.Graph_gen.trees))

let test_graph_determinism () =
  let profile = Workloads.Apps.find "dotty" in
  let _, _, a = generate ~seed:9 profile in
  let _, _, b = generate ~seed:9 profile in
  check_bool "same seed, same graph" true (a = b)

(* A heap's graph as the collector sees it: every region's kind, bump
   top, objects (id, address, size, fields) and remset (holder id, field,
   referent) in order, plus the roots.  Region placement is left out: it
   is what differs between the configurations compared below. *)
let heap_image heap =
  let regions = ref [] in
  H.iter_regions
    (fun r ->
      let objs =
        List.map
          (fun (o : O.t) -> (o.O.id, o.O.addr, o.O.size, Array.to_list o.O.fields))
          (Simstats.Vec.to_list r.R.objs)
      in
      let remset =
        List.map
          (fun slot ->
            match slot with
            | O.Field (h, i) -> (h.O.id, i, O.slot_referent slot)
            | O.Root root -> (-1, root.O.root_id, root.O.target))
          (Simstats.Vec.to_list r.R.remset)
      in
      regions := (r.R.idx, R.kind_name r.R.kind, r.R.top, objs, remset) :: !regions)
    heap;
  let roots =
    List.map
      (fun (r : O.root) -> (r.O.root_id, r.O.target))
      (Simstats.Vec.to_list (H.roots heap))
  in
  (List.rev !regions, roots)

(* One shape, instantiated onto heaps built for three configurations,
   must equal what a fresh [generate] builds on the same heap: the shape
   carries no trace of the configuration it was drawn under. *)
let test_shape_reuse_exact () =
  let env profile (preset, young_space) =
    let heap = H.create (P.heap_config ?young_space profile) in
    let memory = Memsim.Memory.create (P.memory_config profile) in
    let config = Workloads.Apps.gc_config profile ~preset ~threads:8 in
    ignore (Nvmgc.Young_gc.create ~heap ~memory config : Nvmgc.Young_gc.t);
    (heap, Workloads.Old_space.create heap)
  in
  let setups =
    [
      ("vanilla", (`Vanilla, None));
      ("+all", (`All, None));
      ("young-DRAM", (`Vanilla, Some Memsim.Access.Dram));
    ]
  in
  List.iter
    (fun (name, seed) ->
      let profile = Workloads.Apps.find name in
      let shape =
        Workloads.Graph_gen.shape ~profile ~rng:(Simstats.Prng.create seed)
          ~holders:0
      in
      List.iter
        (fun (setup, s) ->
          let what = Printf.sprintf "%s seed %d under %s" name seed setup in
          let heap, old_pool = env profile s in
          let fresh =
            Workloads.Graph_gen.generate ~heap ~profile
              ~rng:(Simstats.Prng.create seed) ~old_pool
          in
          let heap', old_pool' = env profile s in
          let placed =
            Workloads.Graph_gen.instantiate ~heap:heap' ~old_pool:old_pool'
              shape
          in
          check_bool (what ^ ": stats") true (placed = fresh);
          check_bool (what ^ ": objects, remsets, roots") true
            (heap_image heap' = heap_image heap);
          check_int (what ^ ": holders")
            (Workloads.Old_space.holder_count old_pool)
            (Workloads.Old_space.holder_count old_pool'))
        setups)
    [ ("akka-uct", 3); ("akka-uct", 42); ("page-rank", 3); ("page-rank", 42) ]

(* ------------------------------------------------------------------ *)
(* Old space                                                           *)

let test_old_space_slots () =
  let profile = Workloads.Apps.find "reactors" in
  let heap = H.create (P.heap_config profile) in
  let pool = Workloads.Old_space.create heap in
  let h1, f1 = Workloads.Old_space.take_slot pool in
  let h2, f2 = Workloads.Old_space.take_slot pool in
  check_bool "distinct slots" true (not (h1 == h2 && f1 = f2));
  h1.O.fields.(f1) <- 1234;
  Workloads.Old_space.reset_cycle pool;
  check_int "reset nulls holder fields" Simheap.Layout.null h1.O.fields.(f1);
  let h3, f3 = Workloads.Old_space.take_slot pool in
  check_bool "cursor rewound" true (h3 == h1 && f3 = f1)

let test_old_space_recycle_protects_holders () =
  let profile = Workloads.Apps.find "reactors" in
  let heap = H.create (P.heap_config profile) in
  let pool = Workloads.Old_space.create heap in
  ignore (Workloads.Old_space.take_slot pool);
  (* fill some old regions that ARE recyclable *)
  let extra = List.init 8 (fun _ -> Option.get (H.alloc_region heap R.Old)) in
  ignore extra;
  let free_before = H.free_regions heap in
  Workloads.Old_space.recycle pool ~keep_free:(free_before + 4);
  check_bool "recycle freed regions" true (H.free_regions heap > free_before);
  (* holder still usable *)
  let h, f = Workloads.Old_space.take_slot pool in
  check_bool "holder survives recycling" true
    (H.find_obj heap h.O.addr != R.dummy_obj && f >= 0)

(* ------------------------------------------------------------------ *)
(* Mutator                                                             *)

let test_mutator_run () =
  let profile = Workloads.Apps.find "scrabble" in
  let config = Workloads.Apps.gc_config profile ~preset:`All ~threads:8 in
  let result, gc, _memory, _heap =
    Workloads.Mutator.run_fresh ~profile ~seed:2 ~gcs:3 config
  in
  check_int "three pauses" 3 (List.length result.Workloads.Mutator.pauses);
  check_int "totals agree" 3
    (Nvmgc.Young_gc.totals gc).Nvmgc.Gc_stats.pauses;
  Alcotest.(check (float 1.0)) "end = app + gc"
    (result.Workloads.Mutator.app_ns +. result.Workloads.Mutator.gc_ns)
    result.Workloads.Mutator.end_ns;
  check_bool "gc share in (0,1)" true
    (let s = Workloads.Mutator.gc_share result in
     s > 0.0 && s < 1.0)

(* A run's simulated output, bit for bit (NaN-safe, unlike [=]). *)
let run_digest (result : Workloads.Mutator.result) gc =
  Digest.string
    (Marshal.to_string
       (Nvmgc.Young_gc.totals gc, result.Workloads.Mutator.pauses,
        result.Workloads.Mutator.end_ns)
       [ Marshal.No_sharing ])

(* Three cycles with the shape memo cold, then warm from a two-cycle run
   under another configuration: identical statistics.  The warm run
   reuses cycles 1 and 2 and draws cycle 3, so it also pins that a hit
   advances the run's generator as a draw would, and that the holder
   pool grows the same under every configuration. *)
let test_mutator_shape_memo () =
  let profile = Workloads.Apps.find "akka-uct" in
  let run ?(seed = 5) preset threads gcs =
    let config = Workloads.Apps.gc_config profile ~preset ~threads in
    let result, gc, _, _ =
      Workloads.Mutator.run_fresh ~profile ~seed ~gcs config
    in
    check_int "pauses" gcs (List.length result.Workloads.Mutator.pauses);
    run_digest result gc
  in
  Workloads.Mutator.drop_shapes ();
  let cold = run `All 8 3 in
  let cold6 = run ~seed:6 `All 8 3 in
  Workloads.Mutator.share_shapes ();
  Fun.protect ~finally:Workloads.Mutator.drop_shapes (fun () ->
      let other = run `Vanilla 4 2 in
      let warm = run `All 8 3 in
      check_bool "warm = cold" true (Digest.equal warm cold);
      check_bool "other configuration differs" false (Digest.equal other cold);
      (* a new seed must not reuse the previous seed's shapes *)
      check_bool "next seed = cold" true (Digest.equal (run ~seed:6 `All 8 3) cold6))

let test_mutator_device_slows_app () =
  let profile = Workloads.Apps.find "page-rank" in
  let nvm = Workloads.Mutator.app_phase_ns profile ~device:Memsim.Device.optane in
  let dram = Workloads.Mutator.app_phase_ns profile ~device:Memsim.Device.dram in
  check_bool "NVM app phase slower" true (nvm > dram *. 1.5);
  let ml = Workloads.Apps.find "movie-lens" in
  let nvm_ml = Workloads.Mutator.app_phase_ns ml ~device:Memsim.Device.optane in
  let dram_ml = Workloads.Mutator.app_phase_ns ml ~device:Memsim.Device.dram in
  check_bool "movie-lens barely affected (low memory intensity)" true
    (nvm_ml < dram_ml *. 1.3)

(* ------------------------------------------------------------------ *)
(* Prefetch micro-benchmark                                            *)

let test_prefetch_micro () =
  let results = Workloads.Prefetch_micro.run ~accesses:40_000 () in
  check_int "four configurations" 4 (List.length results);
  let dram_imp =
    Workloads.Prefetch_micro.improvement results ~base:"DRAM-noprefetch"
      ~opt:"DRAM-prefetch"
  and nvm_imp =
    Workloads.Prefetch_micro.improvement results ~base:"NVM-noprefetch"
      ~opt:"NVM-prefetch"
  in
  check_bool "prefetching helps DRAM" true (dram_imp > 1.1);
  check_bool "prefetching helps NVM more (paper 3.05x vs 1.58x)" true
    (nvm_imp > dram_imp)

(* ------------------------------------------------------------------ *)
(* Cassandra                                                           *)

let test_cassandra_shapes () =
  let point ~optimized ~thr =
    Workloads.Cassandra.simulate ~requests:15_000 ~write_phase:false
      ~optimized ~threads:28 ~throughput_kqps:thr ~seed:4 ()
  in
  let opt = point ~optimized:true ~thr:130.0 in
  let van = point ~optimized:false ~thr:130.0 in
  check_bool "p99 >= p95" true
    (opt.Workloads.Cassandra.p99_ms >= opt.Workloads.Cassandra.p95_ms -. 1e-9);
  check_bool "optimized GC improves p99 at high load" true
    (van.Workloads.Cassandra.p99_ms > opt.Workloads.Cassandra.p99_ms);
  check_bool "vanilla pauses longer" true
    (van.Workloads.Cassandra.mean_pause_ms > opt.Workloads.Cassandra.mean_pause_ms);
  (* more load -> shorter GC interval *)
  let low = point ~optimized:true ~thr:30.0 in
  check_bool "interval shrinks with load" true
    (low.Workloads.Cassandra.gc_interval_ms > opt.Workloads.Cassandra.gc_interval_ms)

let () =
  Alcotest.run "workloads"
    [
      ( "profiles",
        [
          Alcotest.test_case "26 apps" `Quick test_apps_complete;
          Alcotest.test_case "find" `Quick test_apps_find;
          Alcotest.test_case "geometry" `Quick test_profile_geometry;
          Alcotest.test_case "gc config sizes" `Quick test_gc_config_sizes;
        ] );
      ( "graph_gen",
        [
          Alcotest.test_case "volume" `Quick test_graph_volume;
          Alcotest.test_case "entries reach everything" `Quick
            test_graph_every_entry_reachable;
          Alcotest.test_case "remsets point into young" `Quick
            test_graph_remsets_point_into_young;
          Alcotest.test_case "chain shape" `Quick test_graph_chain_shape;
          Alcotest.test_case "determinism" `Quick test_graph_determinism;
          Alcotest.test_case "shape reuse is exact" `Quick
            test_shape_reuse_exact;
        ] );
      ( "old_space",
        [
          Alcotest.test_case "slots" `Quick test_old_space_slots;
          Alcotest.test_case "recycle protects holders" `Quick
            test_old_space_recycle_protects_holders;
        ] );
      ( "mutator",
        [
          Alcotest.test_case "run" `Quick test_mutator_run;
          Alcotest.test_case "device slows app" `Quick test_mutator_device_slows_app;
          Alcotest.test_case "shape memo warm = cold" `Quick
            test_mutator_shape_memo;
        ] );
      ( "prefetch_micro",
        [ Alcotest.test_case "shapes" `Quick test_prefetch_micro ] );
      ( "cassandra",
        [ Alcotest.test_case "shapes" `Quick test_cassandra_shapes ] );
    ]
