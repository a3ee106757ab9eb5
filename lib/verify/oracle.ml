(** Reference oracle collector.

    A deliberately dumb single-threaded semispace copy — no write cache,
    no header map, no stealing, no cost model — run against the young
    generation as it stands when the pause begins.  Whatever the
    production engine's optimizations do to the {e timing}, the surviving
    object set, their sizes, and the post-pause reference graph must match
    this oracle exactly; {!diff} checks that after the pause completes.

    {!snapshot} runs at the start of {!Nvmgc.Young_gc.collect}, before
    any evacuation work, and computes the oracle closure right there from
    the live address table.  Liveness mirrors the engine's seeding rule:
    the transitive closure from the collection-set remembered sets and
    the non-null mutator roots, traversing only objects inside the
    collection set.  The result is kept in flat arrays indexed by
    [id - lo] over the pause's young id range, so neither the snapshot
    nor the diff allocates per object. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module H = Simheap.Heap

(* How a reference field (or anchor slot) relates to the young
   generation of the snapshotted pause, int-coded so the diff compares
   plain ints: null is 0 ({!Simheap.Layout.null}), an address outside
   the collection set (which must not move) is the address itself, and a
   live young object, named by its stable id, is [-(id + 1)]. *)
let young_class id = -(id + 1)

let class_name c =
  if c = Simheap.Layout.null then "null"
  else if c < 0 then Printf.sprintf "young:%d" (-c - 1)
  else Printf.sprintf "out:0x%x" c

(* [state] bits per id. *)
let young_bit = 1 (* bound in an eden/survivor region when the pause began *)
let live_bit = 2 (* survives per the oracle *)

type snapshot = {
  lo : int;  (** smallest young id; arrays are indexed by [id - lo] *)
  state : Bytes.t;  (** young/live bits *)
  size : int array;  (** pre-pause size of every survivor *)
  field_off : int array;
      (** survivor [i]'s expected fields are [fields] entries
          [field_off.(i)] to [field_off.(i + 1) - 1] *)
  fields : int array;  (** classified, ascending id *)
  anchors : O.slot Simstats.Vec.t;  (** cset remset slots, non-null roots *)
  anchor_class : int Simstats.Vec.t;  (** pre-pause referent classes *)
  survivors : int;
  survivor_bytes : int;
}

let has state i bit = Char.code (Bytes.unsafe_get state i) land bit <> 0

let is_young snap id =
  let i = id - snap.lo in
  i >= 0 && i < Bytes.length snap.state && has snap.state i young_bit

let young_addr heap addr =
  H.in_heap_range heap addr
  &&
  match (H.region_of_addr heap addr).R.kind with
  | R.Eden | R.Survivor -> true
  | R.Free | R.Old | R.Cache -> false

let snapshot gc =
  let heap = Nvmgc.Young_gc.heap gc in
  let young = Simstats.Vec.create R.dummy_obj in
  let lo = ref max_int and hi = ref (-1) in
  H.iter_bindings
    (fun addr (obj : O.t) ->
      if young_addr heap addr then begin
        Simstats.Vec.push young obj;
        lo := Int.min !lo obj.O.id;
        hi := Int.max !hi obj.O.id
      end)
    heap;
  let lo = Int.min !lo (!hi + 1) in
  let n = !hi - lo + 1 in
  let state = Bytes.make n '\000' and objs = Array.make n R.dummy_obj in
  Simstats.Vec.iter
    (fun (obj : O.t) ->
      Bytes.unsafe_set state (obj.O.id - lo) (Char.chr young_bit);
      objs.(obj.O.id - lo) <- obj)
    young;
  (* Field slots for every young object in ascending id order; the
     closure fills those of the survivors. *)
  let field_off = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    field_off.(i + 1) <- field_off.(i) + Array.length objs.(i).O.fields
  done;
  let fields = Array.make field_off.(n) 0 and size = Array.make n 0 in
  (* Reachability over the collection set: [classify] marks and pushes
     each young object the first time it is referenced. *)
  let stack = Array.make n 0 and sp = ref 0 in
  let classify addr =
    let obj =
      if addr = Simheap.Layout.null then R.dummy_obj else H.find_obj heap addr
    in
    if obj == R.dummy_obj || not (young_addr heap addr) then addr
    else begin
      let i = obj.O.id - lo in
      if not (has state i live_bit) then begin
        Bytes.unsafe_set state i (Char.chr (young_bit lor live_bit));
        stack.(!sp) <- i;
        incr sp
      end;
      young_class obj.O.id
    end
  in
  let anchors = Simstats.Vec.create R.dummy_slot in
  let anchor_class = Simstats.Vec.create 0 in
  let add_anchor slot =
    Simstats.Vec.push anchors slot;
    Simstats.Vec.push anchor_class (classify (O.slot_referent slot))
  in
  H.iter_regions
    (fun (r : R.t) ->
      match r.R.kind with
      | R.Eden | R.Survivor -> Simstats.Vec.iter add_anchor r.R.remset
      | R.Free | R.Old | R.Cache -> ())
    heap;
  Simstats.Vec.iter
    (fun (root : O.root) ->
      if root.O.target <> Simheap.Layout.null then add_anchor (O.Root root))
    (H.roots heap);
  let survivors = ref 0 and survivor_bytes = ref 0 in
  while !sp > 0 do
    decr sp;
    let i = stack.(!sp) in
    let obj = objs.(i) in
    size.(i) <- obj.O.size;
    incr survivors;
    survivor_bytes := !survivor_bytes + obj.O.size;
    for k = 0 to Array.length obj.O.fields - 1 do
      fields.(field_off.(i) + k) <- classify obj.O.fields.(k)
    done
  done;
  { lo; state; size; field_off; fields; anchors; anchor_class;
    survivors = !survivors; survivor_bytes = !survivor_bytes }

(* ------------------------------------------------------------------ *)
(* Diffing the real post-pause heap against the oracle.                *)

(* Diff the heap of [gc] (after the pause finished) against what the
   oracle computed from the pre-pause [snap]; [pause] cross-checks the
   reported copy counters. *)
let diff snap gc (pause : Nvmgc.Gc_stats.pause) =
  let heap = Nvmgc.Young_gc.heap gc in
  let report = Report.create 50 in
  let n = Bytes.length snap.state in
  (* The real survivors: post-pause bindings whose object id was young
     when the pause began — per id, a count of bindings (saturating at
     255) and the last one seen. *)
  let copies = Bytes.make n '\000' and real = Array.make n R.dummy_obj in
  H.iter_bindings
    (fun _addr (obj : O.t) ->
      if is_young snap obj.O.id then begin
        let i = obj.O.id - snap.lo in
        let c = Char.code (Bytes.unsafe_get copies i) in
        Bytes.unsafe_set copies i (Char.unsafe_chr (Int.min 255 (c + 1)));
        real.(i) <- obj
      end)
    heap;
  (* Classify a post-pause referent the same way the oracle classifies a
     pre-pause one: young objects by id, everything else by (stable)
     address. *)
  let classify_post addr =
    let obj =
      if addr = Simheap.Layout.null then R.dummy_obj else H.find_obj heap addr
    in
    if obj != R.dummy_obj && is_young snap obj.O.id then young_class obj.O.id
    else addr
  in
  for i = 0 to n - 1 do
    let id = snap.lo + i and c = Char.code (Bytes.unsafe_get copies i) in
    for _ = 2 to c do
      Report.add report "object %d survives at two addresses" id
    done;
    if not (has snap.state i live_bit) then begin
      if c > 0 then
        Report.add report "object %d is dead per the oracle but was evacuated"
          id
    end
    else if c = 0 then
      Report.add report "object %d is live per the oracle but was not evacuated"
        id
    else begin
      (* Size and per-field reference graph of a common survivor. *)
      let obj = real.(i) and off = snap.field_off.(i) in
      let nf = snap.field_off.(i + 1) - off in
      if obj.O.size <> snap.size.(i) then
        Report.add report "object %d: size %d after evacuation, %d before" id
          obj.O.size snap.size.(i);
      if Array.length obj.O.fields <> nf then
        Report.add report "object %d: field count changed (%d -> %d)" id nf
          (Array.length obj.O.fields)
      else
        for k = 0 to nf - 1 do
          let expected = snap.fields.(off + k) in
          let got = classify_post obj.O.fields.(k) in
          if got <> expected then
            Report.add report "object %d field %d: oracle %s, collector %s" id
              k (class_name expected) (class_name got)
        done
    end
  done;
  (* Anchors (remset slots and roots) must have been retargeted to the
     copy of exactly the object they referenced before the pause; one
     that referenced an address outside the collection set must still
     hold that very address. *)
  Simstats.Vec.iteri
    (fun k slot ->
      let expected = Simstats.Vec.get snap.anchor_class k in
      let post = O.slot_referent slot in
      if expected > 0 && post <> expected then
        Report.add report
          "anchor slot: non-young referent moved (0x%x -> 0x%x)" expected post
      else
        let got = classify_post post in
        if got <> expected then
          Report.add report "anchor slot: oracle %s, collector %s (post 0x%x)"
            (class_name expected) (class_name got) post)
    snap.anchors;
  (* The pause's copy counters must account for exactly the oracle's
     survivors. *)
  if pause.Nvmgc.Gc_stats.objects_copied <> snap.survivors then
    Report.add report "pause reports %d objects copied, oracle expects %d"
      pause.Nvmgc.Gc_stats.objects_copied snap.survivors;
  if pause.Nvmgc.Gc_stats.bytes_copied <> snap.survivor_bytes then
    Report.add report "pause reports %d bytes copied, oracle expects %d"
      pause.Nvmgc.Gc_stats.bytes_copied snap.survivor_bytes;
  Report.messages report ~what:"mismatches"
