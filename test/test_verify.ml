(* Tests for the verification subsystem itself: the heap-invariant
   verifier and the oracle collector.

   Positive direction: a matrix of seeded workload shapes (pointer-chain,
   wide, array-heavy, mixed, cassandra) runs under all four write-cache x
   header-map combinations, under both sync and async flushing, with the
   hooks armed — any invariant violation or oracle mismatch raises
   [Verify.Hooks.Verification_failure] from inside the pause.

   Negative direction: deliberately corrupted heaps and forged outcomes
   must be reported, proving the checkers can actually fail. *)

module H = Simheap.Heap
module R = Simheap.Region
module O = Simheap.Objmodel

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let () = Verify.Hooks.ensure_installed ()

(* ------------------------------------------------------------------ *)
(* Workload shapes                                                     *)

let pointer_chain =
  Workloads.Apps.renaissance ~name:"verify-chain" ~survival:0.2 ~chain:0.9
    ~array_fraction:0.0 ~entry:0.05 ~gcs:2 ()

let wide_graph =
  Workloads.Apps.renaissance ~name:"verify-wide" ~survival:0.15 ~chain:0.0
    ~entry:0.25 ~fields:4.0 ~gcs:2 ()

let array_heavy =
  Workloads.Apps.renaissance ~name:"verify-arrays" ~survival:0.1
    ~array_fraction:0.85 ~mean_array:512.0 ~gcs:2 ()

let mixed =
  Workloads.Apps.renaissance ~name:"verify-mixed" ~survival:0.18 ~chain:0.4
    ~array_fraction:0.3 ~entry:0.12 ~gcs:2 ()

let cassandra = Workloads.Cassandra.server_profile ~write_phase:true

let shapes =
  [ pointer_chain; wide_graph; array_heavy; mixed; cassandra ]

(* The four §3 mechanism combinations, sync and async. *)
let combos =
  List.concat_map
    (fun (wc, hm) ->
      List.map
        (fun fm -> (wc, hm, fm))
        [ Nvmgc.Gc_config.Sync; Nvmgc.Gc_config.Async ])
    [ (false, false); (true, false); (false, true); (true, true) ]

let config_for profile ~write_cache ~header_map ~flush_mode =
  {
    (Workloads.Apps.gc_config profile ~preset:`All ~threads:8) with
    Nvmgc.Gc_config.write_cache;
    header_map;
    flush_mode;
    nt_flush = write_cache;
  }

(* Every pause of every run is checked by the armed hooks; a mismatch
   anywhere raises Verification_failure and fails the test. *)
let test_matrix () =
  List.iter
    (fun (profile : Workloads.App_profile.t) ->
      List.iter
        (fun (write_cache, header_map, flush_mode) ->
          let config = config_for profile ~write_cache ~header_map ~flush_mode in
          let gcs = min 2 profile.Workloads.App_profile.gcs_per_run in
          let result, gc, _memory, _heap =
            Workloads.Mutator.run_fresh ~gcs ~profile ~seed:7 config
          in
          check_bool
            (Printf.sprintf "%s under %s ran verified pauses"
               profile.Workloads.App_profile.name
               (Nvmgc.Gc_config.describe config))
            true
            (List.length result.Workloads.Mutator.pauses >= 1);
          check_bool "collector was verifying" true
            (Nvmgc.Young_gc.verifying gc))
        combos)
    shapes

(* A generated heap under a collector whose hooks stay disarmed, so the
   oracle is driven by hand. *)
let oracle_env seed =
  let profile = mixed in
  let heap = H.create (Workloads.App_profile.heap_config profile) in
  let memory =
    Memsim.Memory.create (Workloads.App_profile.memory_config profile)
  in
  let config =
    {
      (Workloads.Apps.gc_config profile ~preset:`All ~threads:8) with
      Nvmgc.Gc_config.verify = false;
    }
  in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create seed in
  ignore (Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool);
  (heap, gc)

(* Like the matrix, but exercising snapshot/diff explicitly, without
   going through the hooks, so the oracle API is covered directly. *)
let test_explicit_oracle_diff () =
  let _heap, gc = oracle_env 11 in
  let snap = Verify.Oracle.snapshot gc in
  let pause = Nvmgc.Young_gc.collect gc ~now_ns:0.0 in
  check_int "oracle agrees with the collector" 0
    (List.length (Verify.Oracle.diff snap gc pause));
  check_int "invariants hold" 0 (List.length (Verify.Invariants.run gc))

(* ------------------------------------------------------------------ *)
(* The checkers must be able to fail.                                  *)

let quiet_env () =
  let profile = mixed in
  let heap = H.create (Workloads.App_profile.heap_config profile) in
  let memory =
    Memsim.Memory.create (Workloads.App_profile.memory_config profile)
  in
  let config = Workloads.Apps.gc_config profile ~preset:`All ~threads:8 in
  let gc = Nvmgc.Young_gc.create ~heap ~memory config in
  let old_pool = Workloads.Old_space.create heap in
  let rng = Simstats.Prng.create 23 in
  ignore (Workloads.Graph_gen.generate ~heap ~profile ~rng ~old_pool);
  let pause = Nvmgc.Young_gc.collect gc ~now_ns:0.0 in
  (heap, gc, pause)

let some_live_object heap =
  (* Lowest-addressed binding: the address table's iteration order is
     unspecified, and the detection tests need a deterministic victim
     that is reachable from the roots — the lowest address sits in the
     first region the generator filled. *)
  let found = ref None in
  H.iter_bindings
    (fun addr obj ->
      match !found with
      | Some (a, _) when a <= addr -> ()
      | _ -> found := Some (addr, obj))
    heap;
  snd (Option.get !found)

let test_invariants_catch_forward () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  obj.O.forward <- obj.O.addr + 8;
  check_bool "stale forwarding pointer detected" true
    (Verify.Invariants.run gc <> []);
  obj.O.forward <- Simheap.Layout.null;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_unbound () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  H.unbind heap obj.O.addr;
  check_bool "missing binding detected" true (Verify.Invariants.run gc <> []);
  H.bind heap obj.O.addr obj;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_cached_and_cset () =
  let heap, gc, _ = quiet_env () in
  let obj = some_live_object heap in
  obj.O.cached <- true;
  obj.O.phys <- obj.O.addr + 64;
  let r = H.region_of_addr heap obj.O.addr in
  r.R.in_cset <- true;
  let violations = Verify.Invariants.run gc in
  check_bool "cached + phys + cset all reported" true
    (List.length violations >= 3);
  obj.O.cached <- false;
  obj.O.phys <- obj.O.addr;
  r.R.in_cset <- false;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

let test_invariants_catch_header_map_residue () =
  let heap, gc, _ = quiet_env () in
  ignore heap;
  let map = Option.get (Nvmgc.Young_gc.header_map gc) in
  (match Nvmgc.Header_map.put map ~key:7 ~value:9 with
  | Nvmgc.Header_map.Installed, _ -> ()
  | _ -> Alcotest.fail "install into cleared map");
  check_bool "header-map residue detected" true
    (Verify.Invariants.run gc <> []);
  Nvmgc.Header_map.clear map;
  check_int "clean again" 0 (List.length (Verify.Invariants.run gc))

(* ------------------------------------------------------------------ *)
(* Oracle mutation tests: forge one wrong outcome after a real pause and
   the diff must name it with its exact message.                       *)

(* Objects bound in regions of the given [kinds], ascending by id (the
   address table's iteration order is unspecified; tests need
   deterministic victims). *)
let objects_in heap kinds =
  let found = ref [] in
  H.iter_bindings
    (fun addr obj ->
      if H.in_heap_range heap addr
         && List.mem (H.region_of_addr heap addr).R.kind kinds
      then found := obj :: !found)
    heap;
  List.sort (fun (a : O.t) b -> compare a.O.id b.O.id) !found

(* Run one pause with the oracle armed by hand.  Returns the young
   objects as they were when the pause began, the surviving ones (same
   records, now at their new addresses) and the dead ones. *)
let oracle_pause ?(setup = ignore) seed =
  let heap, gc = oracle_env seed in
  setup heap;
  let young = objects_in heap [ R.Eden; R.Survivor ] in
  let snap = Verify.Oracle.snapshot gc in
  let pause = Nvmgc.Young_gc.collect gc ~now_ns:0.0 in
  check_int "baseline: oracle agrees" 0
    (List.length (Verify.Oracle.diff snap gc pause));
  let survivors, dead =
    List.partition (fun (o : O.t) -> H.find_obj heap o.O.addr == o) young
  in
  (heap, gc, snap, pause, survivors, dead)

let is_survivor survivors addr =
  List.exists (fun (o : O.t) -> o.O.addr = addr) survivors

let check_reports ~what snap gc pause expected =
  let msgs = Verify.Oracle.diff snap gc pause in
  if not (List.mem expected msgs) then
    Alcotest.failf "%s: expected %S among:\n  %s" what expected
      (String.concat "\n  " msgs)

let check_clean snap gc pause =
  Alcotest.(check (list string))
    "clean after restore" [] (Verify.Oracle.diff snap gc pause)

(* Drop one survivor after the pause. *)
let test_oracle_catches_lost_object () =
  let heap, gc, snap, pause, survivors, _ = oracle_pause 31 in
  let victim = List.hd survivors in
  H.unbind heap victim.O.addr;
  check_reports ~what:"lost survivor" snap gc pause
    (Printf.sprintf "object %d is live per the oracle but was not evacuated"
       victim.O.id);
  H.bind heap victim.O.addr victim;
  (* Forge a wrong copy counter. *)
  let forged =
    { pause with Nvmgc.Gc_stats.objects_copied =
        pause.Nvmgc.Gc_stats.objects_copied + 1 }
  in
  check_reports ~what:"objects copied" snap gc forged
    (Printf.sprintf "pause reports %d objects copied, oracle expects %d"
       (pause.Nvmgc.Gc_stats.objects_copied + 1)
       pause.Nvmgc.Gc_stats.objects_copied)

let test_oracle_wrong_field_copy () =
  let heap, gc, snap, pause, survivors, _ = oracle_pause 31 in
  (* First survivor with a field naming another survivor's copy. *)
  let holder, k =
    List.find_map
      (fun (o : O.t) ->
        Array.find_mapi
          (fun i f -> if is_survivor survivors f then Some (o, i) else None)
          o.O.fields)
      survivors
    |> Option.get
  in
  let target = H.find_obj heap holder.O.fields.(k) in
  let wrong = List.find (fun (o : O.t) -> o != target) survivors in
  holder.O.fields.(k) <- wrong.O.addr;
  check_reports ~what:"retargeted field" snap gc pause
    (Printf.sprintf "object %d field %d: oracle young:%d, collector young:%d"
       holder.O.id k target.O.id wrong.O.id);
  holder.O.fields.(k) <- target.O.addr;
  check_clean snap gc pause

let test_oracle_wrong_anchor_copy () =
  let heap, gc, snap, pause, survivors, _ = oracle_pause 31 in
  let root =
    Simstats.Vec.to_list (H.roots heap)
    |> List.find (fun (r : O.root) -> is_survivor survivors r.O.target)
  in
  let target = H.find_obj heap root.O.target in
  let wrong = List.find (fun (o : O.t) -> o != target) survivors in
  root.O.target <- wrong.O.addr;
  check_reports ~what:"retargeted anchor" snap gc pause
    (Printf.sprintf "anchor slot: oracle young:%d, collector young:%d (post 0x%x)"
       target.O.id wrong.O.id wrong.O.addr);
  root.O.target <- target.O.addr;
  check_clean snap gc pause

(* An anchor naming an object outside the collection set must keep that
   exact address. *)
let test_oracle_moved_out_of_cset_anchor () =
  let root = ref None in
  let setup heap =
    let old = List.hd (objects_in heap [ R.Old ]) in
    root := Some (H.new_root heap old.O.addr)
  in
  let heap, gc, snap, pause, _, _ = oracle_pause ~setup 31 in
  let root = Option.get !root in
  let pre = root.O.target in
  let moved =
    List.find (fun (o : O.t) -> o.O.addr <> pre) (objects_in heap [ R.Old ])
  in
  root.O.target <- moved.O.addr;
  check_reports ~what:"moved anchor" snap gc pause
    (Printf.sprintf "anchor slot: non-young referent moved (0x%x -> 0x%x)" pre
       moved.O.addr);
  root.O.target <- pre;
  check_clean snap gc pause

let test_oracle_two_addresses () =
  let heap, gc, snap, pause, survivors, _ = oracle_pause 31 in
  let victim = List.hd survivors in
  let alias = victim.O.addr + 8 in
  H.bind heap alias victim;
  check_reports ~what:"double binding" snap gc pause
    (Printf.sprintf "object %d survives at two addresses" victim.O.id);
  H.unbind heap alias;
  check_clean snap gc pause

let test_oracle_size_change () =
  let heap, gc, snap, pause, survivors, _ = oracle_pause 31 in
  let victim = List.hd survivors in
  let grown =
    O.make ~id:victim.O.id ~addr:victim.O.addr ~size:(victim.O.size + 8)
      ~fields:(Array.copy victim.O.fields)
  in
  H.bind heap victim.O.addr grown;
  check_reports ~what:"size change" snap gc pause
    (Printf.sprintf "object %d: size %d after evacuation, %d before"
       victim.O.id (victim.O.size + 8) victim.O.size);
  H.bind heap victim.O.addr victim;
  check_clean snap gc pause

(* The generator materializes live objects only: plant [n] unreachable
   ones in a fresh eden region so the oracle has dead young ids. *)
let plant_garbage n heap =
  let r = Option.get (H.alloc_region heap R.Eden) in
  for _ = 1 to n do
    ignore (Option.get (H.new_object heap r ~size:32 ~nfields:1))
  done

(* Rebind oracle-dead young objects at their (now released) pre-pause
   addresses, as if the collector had evacuated them. *)
let resurrect heap dead n =
  let victims = List.filteri (fun i _ -> i < n) dead in
  check_int "enough dead young objects" n (List.length victims);
  List.iter (fun (o : O.t) -> H.bind heap o.O.addr o) victims;
  victims

let test_oracle_dead_evacuated () =
  let heap, gc, snap, pause, _, dead =
    oracle_pause ~setup:(plant_garbage 1) 31
  in
  let victim = List.hd (resurrect heap dead 1) in
  check_reports ~what:"dead object evacuated" snap gc pause
    (Printf.sprintf "object %d is dead per the oracle but was evacuated"
       victim.O.id);
  H.unbind heap victim.O.addr;
  check_clean snap gc pause

let test_oracle_wrong_bytes () =
  let _, gc, snap, pause, _, _ = oracle_pause 31 in
  let bytes = pause.Nvmgc.Gc_stats.bytes_copied in
  let forged = { pause with Nvmgc.Gc_stats.bytes_copied = bytes + 8 } in
  check_reports ~what:"bytes copied" snap gc forged
    (Printf.sprintf "pause reports %d bytes copied, oracle expects %d"
       (bytes + 8) bytes)

(* Past 50 mismatches the report keeps the first 50 (ascending id) and
   counts the rest; diffing the same forged heap twice is identical. *)
let test_oracle_cap_and_determinism () =
  let heap, gc, snap, pause, _, dead =
    oracle_pause ~setup:(plant_garbage 60) 31
  in
  let victims = resurrect heap dead 60 in
  let msgs = Verify.Oracle.diff snap gc pause in
  let expected =
    List.filteri (fun i _ -> i < 50) victims
    |> List.map (fun (o : O.t) ->
           Printf.sprintf "object %d is dead per the oracle but was evacuated"
             o.O.id)
  in
  Alcotest.(check (list string))
    "50 messages + suppression line"
    (expected @ [ "... and 10 further mismatches suppressed" ])
    msgs;
  Alcotest.(check (list string))
    "second diff identical" msgs
    (Verify.Oracle.diff snap gc pause)

(* ------------------------------------------------------------------ *)
(* Invariant message texts, pinned: the "object ... in region ..."
   prefix is formatted lazily and must read exactly as before.        *)

let test_invariant_messages () =
  let heap, gc, _ = quiet_env () in
  let obj =
    List.find
      (fun (o : O.t) -> Array.length o.O.fields > 0)
      (objects_in heap [ R.Old ])
  in
  let r = H.region_of_addr heap obj.O.addr in
  let where =
    Printf.sprintf "object %d @0x%x in region %d (old, base 0x%x)" obj.O.id
      obj.O.addr r.R.idx r.R.base
  in
  let unbound = obj.O.addr + 8 in
  let expect name corrupt restore msg =
    corrupt ();
    let violations = Verify.Invariants.run gc in
    if not (List.mem msg violations) then
      Alcotest.failf "%s: expected %S among:\n  %s" name msg
        (String.concat "\n  " violations);
    restore ();
    check_int (name ^ ": clean again") 0
      (List.length (Verify.Invariants.run gc))
  in
  let f0 = obj.O.fields.(0) in
  expect "dangling field"
    (fun () -> obj.O.fields.(0) <- unbound)
    (fun () -> obj.O.fields.(0) <- f0)
    (Printf.sprintf "%s: field 0 dangles (0x%x unbound)" where unbound);
  expect "dangling remset entry"
    (fun () ->
      Simstats.Vec.push r.R.remset
        (O.Root { O.root_id = -1; target = unbound }))
    (fun () -> ignore (Simstats.Vec.pop r.R.remset))
    (Printf.sprintf "region %d (old, base 0x%x): remset entry dangles (0x%x unbound)"
       r.R.idx r.R.base unbound);
  let root = H.new_root heap Simheap.Layout.null in
  expect "dangling root"
    (fun () -> root.O.target <- unbound)
    (fun () -> root.O.target <- Simheap.Layout.null)
    (Printf.sprintf "root %d dangles (0x%x unbound)" root.O.root_id unbound);
  expect "stale forward"
    (fun () -> obj.O.forward <- unbound)
    (fun () -> obj.O.forward <- Simheap.Layout.null)
    (Printf.sprintf "%s: forwarding pointer 0x%x survived the pause" where
       unbound)

(* ------------------------------------------------------------------ *)
(* Allocation budget: checking a clean pause must not allocate per
   object (no eager formatting, boxed classes or per-object closures).
   Large flat arrays go straight to the major heap; only minor words are
   bounded here.                                                        *)

let test_allocation_budget () =
  let heap, gc = oracle_env 31 in
  let young = List.length (objects_in heap [ R.Eden; R.Survivor ]) in
  let w0 = Gc.minor_words () in
  let snap = Verify.Oracle.snapshot gc in
  let w1 = Gc.minor_words () in
  let pause = Nvmgc.Young_gc.collect gc ~now_ns:0.0 in
  let w2 = Gc.minor_words () in
  let violations = Verify.Invariants.run gc in
  let mismatches = Verify.Oracle.diff snap gc pause in
  let w3 = Gc.minor_words () in
  check_int "clean pause" 0 (List.length violations + List.length mismatches);
  let words = w1 -. w0 +. (w3 -. w2) in
  if words > float_of_int (2 * young) then
    Alcotest.failf "%.0f minor words to check %d young objects (budget %d)"
      words young (2 * young)

(* ------------------------------------------------------------------ *)
(* Config gating                                                       *)

let test_verify_gating () =
  let profile = mixed in
  let config = Workloads.Apps.gc_config profile ~preset:`Vanilla ~threads:4 in
  (* Presets default to verification on. *)
  check_bool "presets enable verify" true config.Nvmgc.Gc_config.verify;
  match Sys.getenv_opt "NVMGC_VERIFY" with
  | Some _ ->
      (* Environment override in force (e.g. the @verify alias) — the
         config field must be ignored; nothing more to assert here. *)
      ()
  | None ->
      check_bool "verify_active follows the flag" true
        (Nvmgc.Gc_config.verify_active config);
      check_bool "verify_active off when disabled" false
        (Nvmgc.Gc_config.verify_active
           { config with Nvmgc.Gc_config.verify = false })

let () =
  Alcotest.run "verify"
    [
      ( "oracle-matrix",
        [
          Alcotest.test_case "5 shapes x 4 combos x sync/async" `Slow
            test_matrix;
          Alcotest.test_case "explicit snapshot/diff" `Quick
            test_explicit_oracle_diff;
        ] );
      ( "detection",
        [
          Alcotest.test_case "stale forward" `Quick
            test_invariants_catch_forward;
          Alcotest.test_case "unbound survivor" `Quick
            test_invariants_catch_unbound;
          Alcotest.test_case "cached/cset residue" `Quick
            test_invariants_catch_cached_and_cset;
          Alcotest.test_case "header-map residue" `Quick
            test_invariants_catch_header_map_residue;
          Alcotest.test_case "oracle catches lost object" `Quick
            test_oracle_catches_lost_object;
          Alcotest.test_case "invariant message texts" `Quick
            test_invariant_messages;
        ] );
      ( "oracle-mutations",
        [
          Alcotest.test_case "field retargeted to wrong copy" `Quick
            test_oracle_wrong_field_copy;
          Alcotest.test_case "anchor retargeted to wrong copy" `Quick
            test_oracle_wrong_anchor_copy;
          Alcotest.test_case "out-of-cset anchor moved" `Quick
            test_oracle_moved_out_of_cset_anchor;
          Alcotest.test_case "id bound at two addresses" `Quick
            test_oracle_two_addresses;
          Alcotest.test_case "size change" `Quick test_oracle_size_change;
          Alcotest.test_case "dead object evacuated" `Quick
            test_oracle_dead_evacuated;
          Alcotest.test_case "wrong bytes_copied" `Quick
            test_oracle_wrong_bytes;
          Alcotest.test_case "50-message cap, deterministic" `Quick
            test_oracle_cap_and_determinism;
        ] );
      ( "allocation",
        [ Alcotest.test_case "clean pause minor-word budget" `Quick
            test_allocation_budget ] );
      ( "gating",
        [ Alcotest.test_case "config flag + env override" `Quick
            test_verify_gating ] );
    ]
