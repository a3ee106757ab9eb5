(* Tests for the memory-device simulator: device parameters, the
   bandwidth model, the LLC (incl. prefetching and dirty write-backs) and
   the composed memory system (pipe ceiling, mix tracking, traces). *)

module A = Memsim.Access

let check_float = Alcotest.(check (float 1e-9))
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Device                                                              *)

let test_device_asymmetry () =
  let d = Memsim.Device.optane in
  check_bool "NVM read bw >> write bw" true
    (d.Memsim.Device.bw_read_seq > 2.0 *. d.Memsim.Device.bw_write_seq);
  check_bool "NVM random read slower than sequential" true
    (d.Memsim.Device.bw_read_random < d.Memsim.Device.bw_read_seq);
  check_bool "NVM latency above DRAM" true
    (d.Memsim.Device.read_latency_random_ns
    > Memsim.Device.dram.Memsim.Device.read_latency_random_ns);
  check_bool "nt beats cached sequential write" true
    (d.Memsim.Device.bw_nt_write > d.Memsim.Device.bw_write_seq)

let test_device_accessors () =
  let d = Memsim.Device.optane in
  check_float "read/seq cap" d.Memsim.Device.bw_read_seq
    (Memsim.Device.device_bw d A.Read A.Sequential);
  check_float "nt cap ignores pattern" d.Memsim.Device.bw_nt_write
    (Memsim.Device.device_bw d A.Nt_write A.Random);
  check_float "write latency for writes" d.Memsim.Device.write_latency_ns
    (Memsim.Device.latency_ns d A.Write A.Sequential)

(* ------------------------------------------------------------------ *)
(* Bandwidth model                                                     *)

let test_mix_penalty_shape () =
  let d = Memsim.Device.optane in
  let p w = Memsim.Bandwidth.mix_penalty d ~write_frac:w in
  check_float "pure reads unpenalized" 1.0 (p 0.0);
  check_float "pure writes unpenalized" 1.0 (p 1.0);
  check_bool "mixed is penalized" true (p 0.5 < 0.8);
  check_bool "small write share already hurts (saturating bowl)" true
    (p 0.10 < 0.85);
  check_bool "dram suffers less" true
    (Memsim.Bandwidth.mix_penalty Memsim.Device.dram ~write_frac:0.5 > p 0.5)

let test_nt_bypasses_penalty () =
  let d = Memsim.Device.optane in
  let nt_mixed =
    Memsim.Bandwidth.device_cap d A.Nt_write A.Sequential ~write_frac:0.5
  in
  check_bool "nt keeps most of its bandwidth in a mix" true
    (nt_mixed > 0.75 *. d.Memsim.Device.bw_nt_write);
  check_float "nt unpenalized when pure" d.Memsim.Device.bw_nt_write
    (Memsim.Bandwidth.device_cap d A.Nt_write A.Sequential ~write_frac:1.0);
  check_bool "cached writes penalized harder" true
    (Memsim.Bandwidth.device_cap d A.Write A.Sequential ~write_frac:0.5
     /. d.Memsim.Device.bw_write_seq
    < nt_mixed /. d.Memsim.Device.bw_nt_write)

let test_effective_gbps_bounds () =
  let d = Memsim.Device.optane in
  let e =
    Memsim.Bandwidth.effective_gbps d A.Read A.Random
      ~bowl:(Memsim.Bandwidth.mix_bowl ~write_frac:0.0)
  in
  check_bool "never above solo" true
    (e <= d.Memsim.Device.thread_bw_read_random +. 1e-9);
  check_bool "positive" true (e > 0.0)

let test_total_cap_harmonic () =
  let d = Memsim.Device.optane in
  let pure_read =
    Memsim.Bandwidth.total_cap d ~write_frac:0.0 ~shares:(1.0, 0.0, 0.0, 0.0)
  in
  check_float "pure random reads = random read cap"
    d.Memsim.Device.bw_read_random pure_read;
  let mixed =
    Memsim.Bandwidth.total_cap d ~write_frac:0.5 ~shares:(0.5, 0.0, 0.5, 0.0)
  in
  check_bool "mix below both pure caps" true
    (mixed < d.Memsim.Device.bw_read_random
    && mixed < d.Memsim.Device.bw_read_seq)

let test_transfer_ns () =
  check_float "1GB/s = 1 byte per ns" 64.0
    (Memsim.Bandwidth.transfer_ns ~bytes:64 ~gbps:1.0)

(* ------------------------------------------------------------------ *)
(* LLC                                                                 *)

(* A single-line demand access (a run of 1). *)
let llc_access llc addr ~write ~seq ~nvm =
  Memsim.Llc.access llc addr ~lines:1 ~write ~seq ~nvm

(* Dirty evictions buffered by the last access/prefetch, as (nvm, seq)
   flags in eviction order. *)
let evictions llc =
  List.init (Memsim.Llc.run_wb_count llc) (fun i ->
      (Memsim.Llc.run_wb_nvm llc i, Memsim.Llc.run_wb_seq llc i))

let test_llc_hit_after_miss () =
  let llc = Memsim.Llc.create ~capacity_bytes:(64 * 1024) ~ways:8 in
  let o1 = llc_access llc 4096 ~write:false ~seq:false ~nvm:true in
  Alcotest.(check bool) "first access misses" true (o1 = Memsim.Llc.Miss);
  let o2 = llc_access llc 4100 ~write:false ~seq:false ~nvm:true in
  Alcotest.(check bool) "same line hits" true (o2 = Memsim.Llc.Hit)

let test_llc_prefetch () =
  let llc = Memsim.Llc.create ~capacity_bytes:(64 * 1024) ~ways:8 in
  let fetched = Memsim.Llc.prefetch llc 8192 ~nvm:true in
  check_bool "prefetch fetched" true fetched;
  let o = llc_access llc 8192 ~write:false ~seq:false ~nvm:true in
  check_bool "prefetched hit" true (o = Memsim.Llc.Prefetched_hit);
  let o = llc_access llc 8192 ~write:false ~seq:false ~nvm:true in
  check_bool "second access is a plain hit" true (o = Memsim.Llc.Hit);
  let fetched = Memsim.Llc.prefetch llc 8192 ~nvm:true in
  check_bool "prefetch of resident line fetches nothing" false fetched

let test_llc_dirty_writeback () =
  (* tiny cache: 2 ways x 2 sets *)
  let llc = Memsim.Llc.create ~capacity_bytes:(4 * 64) ~ways:2 in
  let wbs = ref 0 and nvm_wbs = ref 0 in
  for i = 0 to 63 do
    ignore
      (llc_access llc (i * 64) ~write:true ~seq:false ~nvm:(i mod 2 = 0)
        : Memsim.Llc.outcome);
    List.iter
      (fun (nvm, _) ->
        incr wbs;
        if nvm then incr nvm_wbs)
      (evictions llc)
  done;
  check_bool "write-backs happened" true (!wbs > 0);
  check_bool "some NVM write-backs" true (!nvm_wbs > 0);
  Alcotest.(check int) "counter matches" !wbs (Memsim.Llc.writebacks llc)

let test_llc_clean_eviction_no_writeback () =
  let llc = Memsim.Llc.create ~capacity_bytes:(4 * 64) ~ways:2 in
  for i = 0 to 63 do
    ignore
      (llc_access llc (i * 64) ~write:false ~seq:false ~nvm:true
        : Memsim.Llc.outcome);
    Alcotest.(check int) "clean lines never write back" 0
      (Memsim.Llc.run_wb_count llc)
  done

let test_llc_seq_flag_propagates () =
  let llc = Memsim.Llc.create ~capacity_bytes:(4 * 64) ~ways:2 in
  let seen_seq = ref false in
  for i = 0 to 63 do
    ignore
      (llc_access llc (i * 64) ~write:true ~seq:true ~nvm:true
        : Memsim.Llc.outcome);
    List.iter (fun (_, seq) -> if seq then seen_seq := true) (evictions llc)
  done;
  check_bool "sequentially-dirtied lines drain as sequential" true !seen_seq

let test_llc_capacity_rounding () =
  let llc = Memsim.Llc.create ~capacity_bytes:100_000 ~ways:11 in
  let cap = Memsim.Llc.capacity_bytes llc in
  check_bool "capacity near requested (power-of-two sets)" true
    (cap > 30_000 && cap <= 100_000)

let test_llc_clear () =
  let llc = Memsim.Llc.create ~capacity_bytes:(64 * 1024) ~ways:8 in
  ignore (llc_access llc 0 ~write:true ~seq:false ~nvm:true : Memsim.Llc.outcome);
  Memsim.Llc.clear llc;
  let o = llc_access llc 0 ~write:false ~seq:false ~nvm:true in
  check_bool "cleared: miss again, no stale dirty write-back" true
    (o = Memsim.Llc.Miss && Memsim.Llc.run_wb_count llc = 0)

let test_llc_capacity_behaviour () =
  let llc = Memsim.Llc.create ~capacity_bytes:(16 * 1024) ~ways:8 in
  for _round = 1 to 3 do
    for i = 0 to 63 do
      ignore
        (llc_access llc (i * 64) ~write:false ~seq:false ~nvm:true
          : Memsim.Llc.outcome)
    done
  done;
  check_bool "small working set mostly hits" true
    (Memsim.Llc.hits llc >= 2 * 64)

(* The run walk is its own spec: an n-line [Llc.access] is equivalent to
   n single-line accesses on a twin cache — same first outcome, same
   counters, the same dirty evictions in the same order, and the same
   dirty state on every line. *)
let prop_run_equals_single_lines =
  QCheck2.Test.make ~name:"run walk = per-line accesses on a twin cache"
    ~count:200
    QCheck2.Gen.(
      triple
        (list_size (int_range 0 60) (pair (int_range 0 255) (int_range 0 7)))
        (pair (int_range 0 ((256 * 64) - 1)) (int_range 1 24))
        (int_range 0 7))
    (fun (prior, (addr, n), flags) ->
      let mk () = Memsim.Llc.create ~capacity_bytes:(16 * 64) ~ways:4 in
      let run = mk () and twin = mk () in
      (* Identical arbitrary prior state on both caches: dirty, seq and
         nvm-tagged lines plus prefetch marks. *)
      List.iter
        (fun (line, f) ->
          List.iter
            (fun llc ->
              if f = 7 then
                ignore (Memsim.Llc.prefetch llc (line * 64) ~nvm:true : bool)
              else
                ignore
                  (llc_access llc (line * 64) ~write:(f land 1 <> 0)
                     ~seq:(f land 2 <> 0) ~nvm:(f land 4 <> 0)
                    : Memsim.Llc.outcome))
            [ run; twin ])
        prior;
      let write = flags land 1 <> 0
      and seq = flags land 2 <> 0
      and nvm = flags land 4 <> 0 in
      let first = Memsim.Llc.access run addr ~lines:n ~write ~seq ~nvm in
      let first1 = llc_access twin addr ~write ~seq ~nvm in
      let twin_wbs = ref (evictions twin) in
      for i = 1 to n - 1 do
        ignore
          (llc_access twin (((addr / 64) + i) * 64) ~write ~seq ~nvm
            : Memsim.Llc.outcome);
        twin_wbs := !twin_wbs @ evictions twin
      done;
      let counters llc =
        Memsim.Llc.
          [ hits llc; misses llc; prefetch_hits llc; writebacks llc ]
      in
      first = first1
      && counters run = counters twin
      && evictions run = !twin_wbs
      && List.for_all
           (fun line ->
             Memsim.Llc.line_dirty run (line * 64)
             = Memsim.Llc.line_dirty twin (line * 64))
           (List.init 300 Fun.id))

(* ------------------------------------------------------------------ *)
(* Memory                                                              *)

let mk_memory ?(trace = false) () =
  Memsim.Memory.create
    { Memsim.Memory.default_config with trace_enabled = trace }

(* One charge through the memsim entry point; returns its duration. *)
let access ?force_device m ~now_ns ~addr ~space ~kind ~pattern bytes =
  Memsim.Memory.access ?force_device m ~now_ns ~addr ~space ~kind ~pattern
    ~bytes;
  Memsim.Memory.last_duration m

let test_memory_duration_positive () =
  let m = mk_memory () in
  let d =
    access m ~now_ns:0.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64
  in
  check_bool "positive duration" true (d > 0.0);
  check_bool "at least the miss latency" true
    (d >= Memsim.Device.optane.Memsim.Device.read_latency_random_ns)

let test_memory_hit_cheaper () =
  let m = mk_memory () in
  let once () =
    access m ~now_ns:0.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64
  in
  let miss = once () in
  let hit = once () in
  check_bool "LLC hit is much cheaper than a miss" true (hit < miss /. 3.0)

let test_memory_prefetch_discount () =
  let m = mk_memory () in
  ignore (Memsim.Memory.prefetch m ~now_ns:0.0 ~addr:8192 A.Nvm);
  let d =
    access m ~now_ns:0.0 ~addr:8192
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64
  in
  check_bool "prefetched access cheaper than a full miss" true
    (d < Memsim.Device.optane.Memsim.Device.read_latency_random_ns)

(* A prefetch's dirty eviction drains through the same write-back charge
   as a demand access's: one posted 64-byte NVM write, attributed to the
   flush pipeline. *)
let test_memory_prefetch_evicts_dirty () =
  let r = Nvmtrace.Recorder.create () in
  Nvmtrace.Hooks.set_recorder (Some r);
  Fun.protect
    ~finally:(fun () -> Nvmtrace.Hooks.set_recorder None)
    (fun () ->
      (* a one-line LLC: the prefetch must evict the dirtied line *)
      let m =
        Memsim.Memory.create
          {
            Memsim.Memory.default_config with
            llc_capacity_bytes = 64;
            llc_ways = 1;
          }
      in
      ignore
        (access m ~now_ns:0.0 ~addr:0 ~space:A.Nvm ~kind:A.Write
           ~pattern:A.Random 8);
      let flushed () =
        Nvmtrace.Recorder.total r ~nvm:true ~write:true
          Nvmtrace.Recorder.Flush_pipe
      in
      let before = Memsim.Memory.snapshot m and flushed_before = flushed () in
      check_bool "line fetched" true
        (Memsim.Memory.prefetch m ~now_ns:10.0 ~addr:4096 A.Nvm > 0.0
        && Memsim.Llc.writebacks (Memsim.Memory.llc m) = 1);
      let d = Memsim.Memory.diff ~before ~after:(Memsim.Memory.snapshot m) in
      check_float "one line written back" 64.0 d.Memsim.Memory.nvm_write_bytes;
      check_float "attributed to the flush pipe" 64.0
        (flushed () -. flushed_before))

let test_memory_force_device () =
  let m = mk_memory () in
  (* warm the line so a normal write would hit *)
  ignore
    (access m ~now_ns:0.0 ~addr:4096
       ~space:A.Nvm ~kind:A.Read ~pattern:A.Random 64);
  let cached =
    access m ~now_ns:100.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 8
  in
  let forced =
    access ~force_device:true m ~now_ns:200.0 ~addr:4096
      ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 8
  in
  check_bool "forced atomic write dearer than cached write" true
    (forced > cached)

let test_memory_pipe_ceiling () =
  let m = mk_memory () in
  let bytes = 4096 in
  let n = 2_000 in
  let finish = ref 0.0 in
  for i = 0 to n - 1 do
    let d =
      access m ~now_ns:0.0
        ~addr:(Simheap.Layout.heap_base + (i * bytes))
        ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential bytes
    in
    finish := Float.max !finish d
  done;
  let gbps = float_of_int (n * bytes) /. !finish in
  check_bool
    (Printf.sprintf "aggregate read bw capped near device limit (got %.1f)"
       gbps)
    true
    (gbps < Memsim.Device.optane.Memsim.Device.bw_read_seq *. 1.2)

let test_memory_write_frac_tracking () =
  let m = mk_memory () in
  for i = 0 to 9 do
    ignore
      (access m ~now_ns:(float_of_int i) ~addr:(i * 64)
         ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 64)
  done;
  check_bool "write-only traffic -> write_frac near 1" true
    (Memsim.Memory.write_frac m A.Nvm ~now_ns:10.0 > 0.8);
  check_float "dram untouched" 0.0
    (Memsim.Memory.write_frac m A.Dram ~now_ns:10.0)

let test_memory_mixed_slower_than_pure () =
  let pure = mk_memory () in
  let mixed = mk_memory () in
  let read m i now =
    access m ~now_ns:now
      ~addr:(Simheap.Layout.heap_base + (i * 8192))
      ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential 8192
  in
  let write m i now =
    access m ~now_ns:now
      ~addr:(Simheap.Layout.dram_scratch_base + (i * 8192))
      ~space:A.Nvm ~kind:A.Write ~pattern:A.Random 8192
  in
  let t_pure = ref 0.0 in
  for i = 0 to 199 do
    t_pure := !t_pure +. read pure i !t_pure
  done;
  let t_mixed = ref 0.0 and read_time = ref 0.0 in
  for i = 0 to 199 do
    let d = read mixed i !t_mixed in
    read_time := !read_time +. d;
    t_mixed := !t_mixed +. d;
    t_mixed := !t_mixed +. write mixed i !t_mixed
  done;
  check_bool "reads slower in a mixed stream" true
    (!read_time > !t_pure *. 1.2)

let test_memory_nt_write_efficiency () =
  let cached = mk_memory () and nt = mk_memory () in
  let stream m kind =
    let t = ref 0.0 in
    for i = 0 to 99 do
      t :=
        !t
        +. access m ~now_ns:!t
             ~addr:(Simheap.Layout.heap_base + (i * 16384))
             ~space:A.Nvm ~kind ~pattern:A.Sequential 16384
    done;
    !t
  in
  let t_cached = stream cached A.Write in
  let t_nt = stream nt A.Nt_write in
  check_bool "nt streaming faster than cached stores" true (t_nt < t_cached)

let test_memory_snapshot_diff () =
  let m = mk_memory () in
  let before = Memsim.Memory.snapshot m in
  ignore
    (access m ~now_ns:0.0 ~addr:0
       ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential 1000);
  ignore
    (access m ~now_ns:10.0 ~addr:64
       ~space:A.Dram ~kind:A.Write ~pattern:A.Sequential 500);
  let diff = Memsim.Memory.diff ~before ~after:(Memsim.Memory.snapshot m) in
  check_float "nvm reads counted" 1000.0 diff.Memsim.Memory.nvm_read_bytes;
  check_float "dram writes counted" 500.0 diff.Memsim.Memory.dram_write_bytes;
  check_float "no spurious nvm writes" 0.0 diff.Memsim.Memory.nvm_write_bytes

let test_memory_traces () =
  let m = mk_memory ~trace:true () in
  ignore
    (access m ~now_ns:0.0 ~addr:0
       ~space:A.Nvm ~kind:A.Read ~pattern:A.Sequential 4096);
  let series = Memsim.Memory.read_trace m A.Nvm in
  Alcotest.(check (float 1.0)) "trace mass = bytes" 4096.0
    (Simstats.Timeseries.total series)

let test_memory_record_background () =
  let m = mk_memory ~trace:true () in
  Memsim.Memory.record_background m ~from_ns:0.0 ~until_ns:1e6 ~space:A.Nvm
    ~read_bytes:1e6 ~write_bytes:5e5;
  let after = Memsim.Memory.snapshot m in
  check_float "background reads" 1e6 after.Memsim.Memory.nvm_read_bytes;
  check_float "background writes" 5e5 after.Memsim.Memory.nvm_write_bytes;
  check_bool "write_frac reflects background mix" true
    (let w = Memsim.Memory.write_frac m A.Nvm ~now_ns:1e6 in
     w > 0.2 && w < 0.5)

(* The float-identity arguments behind the batched run/drain path
   (Memory.access), as executable properties:

   1. the traffic-mix EMA is affine in its contributions — decaying to a
      timestamp then adding k integer-valued parts is bit-for-bit the
      same as adding their sum once, so every downstream read
      (write_frac, consumed bandwidth, utilization) agrees exactly;

   2. the continuous recorder's per-cause totals sum exactly (again
      bitwise, not approximately) to the memory system's aggregate byte
      counters, even though the run path batches its write-back
      attribution into per-space deltas.

   Both lean on the same fact: all contributions are integer-valued
   floats far below 2^53, so float addition of any split is exact. *)
let prop_batched_mix_equals_fold =
  QCheck2.Test.make
    ~name:"batched mix update = per-part fold (bit-for-bit)" ~count:100
    QCheck2.Gen.(
      pair (int_range 1 64)
        (list_size (int_range 0 8) (pair (int_range 1 1000) (int_range 1 64))))
    (fun (k, prior) ->
      let bits = Int64.bits_of_float in
      let m1 = mk_memory () and m2 = mk_memory () in
      (* Identical arbitrary prior traffic, so the EMA state the batch
         lands on is nontrivial. *)
      let t = ref 0.0 in
      List.iter
        (fun (dt, lines) ->
          t := !t +. float_of_int dt;
          List.iter
            (fun m ->
              Memsim.Memory.record_background m ~from_ns:!t ~until_ns:!t
                ~space:A.Nvm
                ~read_bytes:(float_of_int (lines * 64))
                ~write_bytes:0.0)
            [ m1; m2 ])
        prior;
      let now = !t +. 10.0 in
      (* m1: one batched contribution of k lines.  m2: k per-line
         contributions at the same instant (decay is a no-op after the
         first, dt = 0). *)
      Memsim.Memory.record_background m1 ~from_ns:now ~until_ns:now
        ~space:A.Nvm ~read_bytes:0.0
        ~write_bytes:(float_of_int (k * 64));
      for _ = 1 to k do
        Memsim.Memory.record_background m2 ~from_ns:now ~until_ns:now
          ~space:A.Nvm ~read_bytes:0.0 ~write_bytes:64.0
      done;
      let later = now +. 123.0 in
      bits (Memsim.Memory.write_frac m1 A.Nvm ~now_ns:later)
      = bits (Memsim.Memory.write_frac m2 A.Nvm ~now_ns:later)
      && bits (Memsim.Memory.consumed_gbps m1 A.Nvm ~now_ns:later)
         = bits (Memsim.Memory.consumed_gbps m2 A.Nvm ~now_ns:later)
      && bits (Memsim.Memory.utilization m1 A.Nvm ~now_ns:later)
         = bits (Memsim.Memory.utilization m2 A.Nvm ~now_ns:later))

let prop_recorder_cause_totals_exact =
  QCheck2.Test.make
    ~name:"recorder per-cause totals sum bitwise to memory totals" ~count:50
    QCheck2.Gen.(
      list_size (int_range 1 80) (pair (int_range 0 10_000) (int_range 0 10_000)))
    (fun ops ->
      let r = Nvmtrace.Recorder.create () in
      Nvmtrace.Hooks.set_recorder (Some r);
      Fun.protect
        ~finally:(fun () -> Nvmtrace.Hooks.set_recorder None)
        (fun () ->
          let m = mk_memory () in
          let before = Memsim.Memory.snapshot m in
          let causes = Nvmtrace.Recorder.all_causes in
          let now = ref 0.0 in
          List.iter
            (fun (a, b) ->
              let space = if a land 1 = 0 then A.Dram else A.Nvm in
              let kind =
                match a land 6 with
                | 0 | 2 -> A.Read
                | 4 -> A.Write
                | _ -> A.Nt_write
              in
              let pattern = if a land 8 = 0 then A.Random else A.Sequential in
              let cause = List.nth causes (a mod List.length causes) in
              let bytes = 8 + (b mod 600) in
              let addr = b * 97 mod 50_000 * 8 in
              now := !now +. float_of_int (1 + (a mod 50));
              Memsim.Memory.set_cause m cause;
              Memsim.Memory.access m ~now_ns:!now ~addr ~space ~kind ~pattern
                ~bytes)
            ops;
          let d =
            Memsim.Memory.diff ~before ~after:(Memsim.Memory.snapshot m)
          in
          let bits = Int64.bits_of_float in
          let sum ~nvm ~write =
            List.fold_left
              (fun acc c -> acc +. Nvmtrace.Recorder.total r ~nvm ~write c)
              0.0 causes
          in
          bits (sum ~nvm:false ~write:false) = bits d.Memsim.Memory.dram_read_bytes
          && bits (sum ~nvm:false ~write:true)
             = bits d.Memsim.Memory.dram_write_bytes
          && bits (sum ~nvm:true ~write:false)
             = bits d.Memsim.Memory.nvm_read_bytes
          && bits (sum ~nvm:true ~write:true)
             = bits d.Memsim.Memory.nvm_write_bytes))

let prop_access_duration_monotone_in_size =
  QCheck2.Test.make ~name:"bigger sequential access never cheaper" ~count:50
    QCheck2.Gen.(int_range 64 100_000)
    (fun bytes ->
      let m = mk_memory () in
      let d1 =
        access m ~now_ns:0.0 ~addr:Simheap.Layout.heap_base
          ~space:A.Nvm ~kind:A.Nt_write ~pattern:A.Sequential bytes
      in
      let m2 = mk_memory () in
      let d2 =
        access m2 ~now_ns:0.0 ~addr:Simheap.Layout.heap_base
          ~space:A.Nvm ~kind:A.Nt_write ~pattern:A.Sequential (bytes * 2)
      in
      d2 >= d1)

let () =
  let qc = QCheck_alcotest.to_alcotest in
  Alcotest.run "memsim"
    [
      ( "device",
        [
          Alcotest.test_case "asymmetry" `Quick test_device_asymmetry;
          Alcotest.test_case "accessors" `Quick test_device_accessors;
        ] );
      ( "bandwidth",
        [
          Alcotest.test_case "mix penalty shape" `Quick test_mix_penalty_shape;
          Alcotest.test_case "nt bypasses penalty" `Quick test_nt_bypasses_penalty;
          Alcotest.test_case "effective bounds" `Quick test_effective_gbps_bounds;
          Alcotest.test_case "total cap harmonic" `Quick test_total_cap_harmonic;
          Alcotest.test_case "transfer ns" `Quick test_transfer_ns;
        ] );
      ( "llc",
        [
          Alcotest.test_case "hit after miss" `Quick test_llc_hit_after_miss;
          Alcotest.test_case "prefetch" `Quick test_llc_prefetch;
          Alcotest.test_case "dirty writeback" `Quick test_llc_dirty_writeback;
          Alcotest.test_case "clean eviction silent" `Quick
            test_llc_clean_eviction_no_writeback;
          Alcotest.test_case "seq flag propagates" `Quick
            test_llc_seq_flag_propagates;
          Alcotest.test_case "capacity rounding" `Quick test_llc_capacity_rounding;
          Alcotest.test_case "clear" `Quick test_llc_clear;
          Alcotest.test_case "capacity behaviour" `Quick test_llc_capacity_behaviour;
          qc prop_run_equals_single_lines;
        ] );
      ( "memory",
        [
          Alcotest.test_case "duration positive" `Quick test_memory_duration_positive;
          Alcotest.test_case "hit cheaper" `Quick test_memory_hit_cheaper;
          Alcotest.test_case "prefetch discount" `Quick test_memory_prefetch_discount;
          Alcotest.test_case "prefetch evicts dirty" `Quick
            test_memory_prefetch_evicts_dirty;
          Alcotest.test_case "force device" `Quick test_memory_force_device;
          Alcotest.test_case "pipe ceiling" `Quick test_memory_pipe_ceiling;
          Alcotest.test_case "write frac tracking" `Quick
            test_memory_write_frac_tracking;
          Alcotest.test_case "mixed slower than pure" `Quick
            test_memory_mixed_slower_than_pure;
          Alcotest.test_case "nt write efficiency" `Quick
            test_memory_nt_write_efficiency;
          Alcotest.test_case "snapshot diff" `Quick test_memory_snapshot_diff;
          Alcotest.test_case "traces" `Quick test_memory_traces;
          Alcotest.test_case "record background" `Quick
            test_memory_record_background;
          qc prop_access_duration_monotone_in_size;
          qc prop_batched_mix_equals_fold;
          qc prop_recorder_cause_totals_exact;
        ] );
    ]
