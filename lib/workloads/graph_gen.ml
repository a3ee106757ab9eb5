(** Object-graph generation for one mutation cycle.

    Populates the eden space with the live-object graph a young GC will
    encounter, per the application profile:

    - only {e live} objects are materialized; dead allocations appear as
      bump-pointer gaps (the GC never touches dead objects, so their only
      observable effect is eden occupancy);
    - live objects form structures anchored at {e entry} objects, each
      reached from a remembered-set slot (an old-space holder field) or a
      mutator root;
    - structures are pointer chains (serializing traversal — akka-uct's
      load imbalance) or bushy trees, mixed per [chain_fraction];
    - primitive arrays attach as leaves; some node fields point into old
      space; a small share of objects carries duplicate incoming
      references, exercising forwarding-pointer deduplication.

    Generation is two steps.  {!shape} makes every PRNG draw and records
    the graph as flat int arrays, with objects, old-space holders and
    holder slots named by index; it needs no heap, because eden regions
    start empty (gaps and region switches are pure geometry from
    [region_bytes]) and the holder pool only grows by generation.
    {!instantiate} places a shape onto a heap and a holder pool.  A shape
    is therefore a function of (profile, cycle rng, holder count) alone,
    and one shape can be placed under any GC configuration or placement.

    The intermediate populations (nodes, arrays, entries, open nodes,
    chain tails) are int vectors local to one draw.  A sweep shares each
    shape across its cells (see [Mutator]), so draws are rare, and no
    buffer sized for the largest app stays resident between them. *)

module R = Simheap.Region
module O = Simheap.Objmodel
module P = App_profile
module Vec = Simstats.Vec

type stats = {
  live_objects : int;
  live_bytes : int;
  arrays : int;
  chains : int;
  trees : int;
  remset_slots : int;
  root_slots : int;
  eden_regions : int;
}

(* Field encoding in {!shape.fields}: [null_ref] is null, [i >= 0] the
   shape's object [i], [-2 - h] old-space holder [h]. *)
let null_ref = -1

(* Offsets in {!shape.pos} take the low [pos_bits]: regions are far
   smaller than 4 GiB, and a shift beats a division per reference. *)
let pos_bits = 32
let offset_mask = (1 lsl pos_bits) - 1

type shape = {
  region_bytes : int;
  holders_in : int;  (** holder-pool size the draws assumed *)
  holders_out : int;  (** holder-pool size after instantiation *)
  sizes : int array;  (** object [i]'s size, in eden placement order *)
  pos : int array;
      (** object [i]'s eden position, [(k lsl pos_bits) lor offset] in the
          [k]-th eden region taken; the bytes below [offset] not taken by
          earlier objects are its dead-allocation gap *)
  field_start : int array;
      (** object [i]'s fields are [fields.(field_start.(i))] up to
          [field_start.(i + 1)] (exclusive) *)
  fields : int array;
  anchors : int array;
      (** remset anchors in push order: holder slot [k] references object
          [anchors.(k)] *)
  roots : int array;  (** root targets in creation order *)
  stats : stats;
}

(* Draw sizes so that the byte-weighted mean of the resulting population is
   close to the profile's means.  The lognormal mu/sigma derivations are
   per-profile constants, computed once per draw ({!size_params_of}) — the
   draws themselves are bit-identical to calling [Prng.lognormal]. *)
type size_params = {
  fields_ln : Simstats.Prng.lognormal_params;
  node_size_ln : Simstats.Prng.lognormal_params;
  array_size_ln : Simstats.Prng.lognormal_params;
}

let size_params_of (p : P.t) =
  {
    fields_ln =
      Simstats.Prng.lognormal_params ~mean:(Float.max 1.0 p.P.mean_fields)
        ~cv:0.6;
    node_size_ln =
      Simstats.Prng.lognormal_params ~mean:p.P.mean_obj_bytes
        ~cv:p.P.obj_size_cv;
    array_size_ln =
      Simstats.Prng.lognormal_params ~mean:p.P.mean_array_bytes
        ~cv:p.P.obj_size_cv;
  }

let draw_node sp rng =
  let nfields =
    max 1 (int_of_float (Simstats.Prng.lognormal_draw rng sp.fields_ln +. 0.5))
  in
  let base = Simheap.Layout.header_bytes + (nfields * Simheap.Layout.ref_bytes) in
  let size = Simstats.Prng.lognormal_draw rng sp.node_size_ln in
  let size = max base (8 * ((int_of_float size + 7) / 8)) in
  (size, nfields)

let draw_array (p : P.t) sp rng =
  let size = Simstats.Prng.lognormal_draw rng sp.array_size_ln in
  let size = max 32 (8 * ((int_of_float size + 7) / 8)) in
  (min size (p.P.region_bytes / 2), 0)

(* Eden geometry while drawing: the free bytes of the current region
   (-1 before the first), the regions taken, and the position of the last
   placed object (see {!shape.pos}). *)
type eden = {
  mutable free : int;
  mutable regions : int;
  mutable pos : int;
}

(* Place one live object after its dead-allocation gap; false when eden
   is exhausted.  Mirrors bump allocation in fresh regions, drawing the
   gap again after every region switch. *)
let rec place e (profile : P.t) rng size =
  if e.free >= 0 then begin
    (* Scatter live objects by preceding each with a dead-allocation gap
       sized so live/allocated matches the survival ratio. *)
    let ratio = Float.max 0.02 profile.P.survival_ratio in
    let gap_mean = float_of_int size *. ((1.0 /. ratio) -. 1.0) in
    let gap =
      8 * (int_of_float (Simstats.Prng.float rng (2.0 *. gap_mean)) / 8)
    in
    let gap = max 0 (min gap (e.free - size)) in
    if size <= e.free - gap then begin
      e.pos <-
        ((e.regions - 1) lsl pos_bits)
        lor (profile.P.region_bytes - e.free + gap);
      e.free <- e.free - gap - size;
      true
    end
    else begin
      e.free <- -1;
      place e profile rng size
    end
  end
  else if e.regions >= P.young_regions profile then false
  else begin
    e.free <- profile.P.region_bytes;
    e.regions <- e.regions + 1;
    place e profile rng size
  end

(** Draw one cycle's live graph.  [holders] is the holder-pool size at
    the start of the cycle (old-space targets are drawn among them). *)
let shape ~(profile : P.t) ~rng ~holders =
  if profile.P.region_bytes > offset_mask then
    invalid_arg "Graph_gen.shape: region too large for a shape position";
  let sp = size_params_of profile in
  let ints () = Vec.create 0 in
  let sizes = ints () and pos = ints () and nfields_of = ints () in
  let nodes = ints () and arrays = ints () and entries = ints () in
  let open_objs = ints () and open_next = ints () and tail_objs = ints () in
  let anchors = ints () and roots = ints () in
  let target_live = P.live_bytes_per_gc profile in
  (* 1. Draw the live population and its eden placement. *)
  let e = { free = -1; regions = 0; pos = 0 } in
  let live = ref 0 in
  let continue_ = ref true in
  while !continue_ && !live < target_live do
    let is_array = Simstats.Prng.float rng 1.0 < profile.P.array_fraction in
    let size, nfields =
      if is_array then draw_array profile sp rng else draw_node sp rng
    in
    if not (place e profile rng size) then continue_ := false
    else begin
      let i = Vec.length sizes in
      Vec.push sizes size;
      Vec.push pos e.pos;
      Vec.push nfields_of nfields;
      live := !live + size;
      Vec.push (if is_array then arrays else nodes) i
    end
  done;
  let n = Vec.length sizes in
  let field_start = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    field_start.(i + 1) <- field_start.(i) + Vec.get nfields_of i
  done;
  let fields = Array.make field_start.(n) null_ref in
  let nfields i = Vec.get nfields_of i in
  let set_field i j v = fields.(field_start.(i) + j) <- v in
  (* The retired cons/[Array.of_list] representation enumerated both
     populations newest-first; reversing the push-ordered vectors keeps
     the generator stream (and thus every produced graph) bit-identical. *)
  Vec.reverse_in_place nodes;
  Vec.reverse_in_place arrays;
  Vec.shuffle rng nodes;
  (* 2. Partition nodes into entry-anchored structures. *)
  let total_live = Vec.length nodes + Vec.length arrays in
  let entry_count =
    max 1
      (min (Vec.length nodes)
         (int_of_float (profile.P.entry_fraction *. float_of_int total_live)))
  in
  let chains = ref 0 and trees = ref 0 in
  let new_entry obj =
    Vec.push entries obj;
    if nfields obj > 0
       && Simstats.Prng.float rng 1.0 < profile.P.chain_fraction
    then begin
      incr chains;
      Vec.push tail_objs obj
    end
    else begin
      incr trees;
      if nfields obj > 0 then begin
        Vec.push open_objs obj;
        Vec.push open_next 0
      end
    end
  in
  for i = 0 to entry_count - 1 do
    new_entry (Vec.get nodes i)
  done;
  (* Members join a random structure: chains grow at their tail through
     field 0; trees attach members at any open field. *)
  let attach_to_tree member =
    let n = Vec.length open_objs in
    if n = 0 then false
    else begin
      let i = Simstats.Prng.int rng n in
      let parent = Vec.get open_objs i in
      let next_field = Vec.get open_next i in
      set_field parent next_field member;
      if next_field + 1 >= nfields parent then begin
        (* swap-remove the saturated parent from both columns *)
        let last = Vec.length open_objs - 1 in
        Vec.set open_objs i (Vec.get open_objs last);
        Vec.set open_next i (Vec.get open_next last);
        ignore (Vec.pop_or_dummy open_objs : int);
        ignore (Vec.pop_or_dummy open_next : int)
      end
      else Vec.set open_next i (next_field + 1);
      true
    end
  in
  let attach_to_chain member =
    let n = Vec.length tail_objs in
    if n = 0 then false
    else begin
      let i = Simstats.Prng.int rng n in
      set_field (Vec.get tail_objs i) 0 member;
      Vec.set tail_objs i member;
      true
    end
  in
  for i = entry_count to Vec.length nodes - 1 do
    let member = Vec.get nodes i in
    let prefer_chain = Simstats.Prng.float rng 1.0 < profile.P.chain_fraction in
    (* How the member actually attached matters: a chain tail's field 0 is
       reserved for its successor, so only members that really joined a
       chain may skip it when they later host tree children. *)
    let attachment =
      if prefer_chain then
        if attach_to_chain member then `Chain
        else if attach_to_tree member then `Tree
        else `None
      else if attach_to_tree member then `Tree
      else if attach_to_chain member then `Chain
      else `None
    in
    match attachment with
    | `None ->
        (* no open structure can take it: promote to an extra entry *)
        new_entry member
    | `Chain ->
        (* field 0 is the chain link; remaining fields may host children *)
        if nfields member > 1 then begin
          Vec.push open_objs member;
          Vec.push open_next 1
        end
    | `Tree ->
        Vec.push open_objs member;
        Vec.push open_next 0
  done;
  (* 3. Arrays attach as leaves wherever a field is open; orphans become
     entry structures of their own (anchored directly).  [arrays] was
     reversed above, so a forward walk is newest-first — the retired
     list order. *)
  for i = 0 to Vec.length arrays - 1 do
    let arr = Vec.get arrays i in
    if not (attach_to_tree arr) then new_entry arr
  done;
  (* 4. Point some remaining open fields at old space (a random holder;
     the pool holds at least one once any is drawn); the rest stay null. *)
  let pool = ref holders in
  for k = 0 to Vec.length open_objs - 1 do
    let obj = Vec.get open_objs k in
    for i = Vec.get open_next k to nfields obj - 1 do
      if Simstats.Prng.float rng 1.0 < profile.P.old_target_fraction then begin
        pool := max !pool 1;
        set_field obj i (-2 - Simstats.Prng.int rng !pool)
      end
    done
  done;
  (* 5. Anchor every structure entry from a remset slot or a root
     (newest-first, matching the retired list order). *)
  for i = Vec.length entries - 1 downto 0 do
    let obj = Vec.get entries i in
    if Simstats.Prng.float rng 1.0 < profile.P.remset_fraction then
      Vec.push anchors obj
    else Vec.push roots obj
  done;
  (* 6. Duplicate references: extra remset slots at ~5 % of live nodes,
     exercising forwarding-pointer deduplication. *)
  let dup_count = Vec.length nodes / 20 in
  for _ = 1 to dup_count do
    if Vec.length nodes > 0 then
      Vec.push anchors
        (Vec.get nodes (Simstats.Prng.int rng (Vec.length nodes)))
  done;
  let slots = Vec.length anchors in
  {
    region_bytes = profile.P.region_bytes;
    holders_in = holders;
    holders_out =
      max !pool
        ((slots + Old_space.holder_fields - 1) / Old_space.holder_fields);
    sizes = Vec.to_array sizes;
    pos = Vec.to_array pos;
    field_start;
    fields;
    anchors = Vec.to_array anchors;
    roots = Vec.to_array roots;
    stats =
      {
        live_objects = total_live;
        live_bytes = !live;
        arrays = Vec.length arrays;
        chains = !chains;
        trees = !trees;
        remset_slots = slots;
        root_slots = Vec.length roots;
        eden_regions = e.regions;
      };
  }

let take_eden heap =
  match Simheap.Heap.alloc_region heap R.Eden with
  | Some region -> region
  | None -> failwith "Graph_gen.instantiate: heap exhausted allocating eden"

(** Place a shape onto [heap] and [old_pool].  The caller must have reset
    the roots and the holder pool for the new cycle. *)
let instantiate ~heap ~old_pool s =
  if Simheap.Heap.region_bytes heap <> s.region_bytes then
    invalid_arg "Graph_gen.instantiate: region size differs from the shape's";
  if Old_space.holder_count old_pool <> s.holders_in then
    invalid_arg "Graph_gen.instantiate: holder pool differs from the shape's";
  (* Nothing else takes regions or creates objects meanwhile, so taking
     every eden region up front takes the ones the draw's lazy takes
     would, trailing regions it took without fitting an object included.
     Positions then give every object's address before it exists. *)
  let eden = Array.init s.stats.eden_regions (fun _ -> take_eden heap) in
  let addr v =
    let p = s.pos.(v) in
    eden.(p lsr pos_bits).R.base + (p land offset_mask)
  in
  (* 1. Objects in eden order, with their young references. *)
  for i = 0 to Array.length s.sizes - 1 do
    let region = eden.(s.pos.(i) lsr pos_bits) in
    let gap = (s.pos.(i) land offset_mask) - R.used_bytes region in
    if gap > 0 then ignore (R.try_alloc region gap : int);
    let base = s.field_start.(i) in
    match
      Simheap.Heap.new_object heap region ~size:s.sizes.(i)
        ~nfields:(s.field_start.(i + 1) - base)
    with
    | Some obj ->
        for j = 0 to O.nfields obj - 1 do
          let v = s.fields.(base + j) in
          if v >= 0 then obj.O.fields.(j) <- addr v
        done
    | None -> assert false
  done;
  (* 2. Holders, created after the last eden object as the draw's pool
     growth did, then the references to them. *)
  Old_space.ensure_slots old_pool (s.holders_out * Old_space.holder_fields);
  let i = ref 0 in
  Array.iter
    (fun (region : R.t) ->
      Vec.iter
        (fun (obj : O.t) ->
          let base = s.field_start.(!i) in
          for j = 0 to O.nfields obj - 1 do
            let v = s.fields.(base + j) in
            if v < null_ref then
              obj.O.fields.(j) <- (Old_space.holder old_pool (-2 - v)).O.addr
          done;
          incr i)
        region.R.objs)
    eden;
  (* 3. Remset anchors take consecutive holder slots, then the roots. *)
  Array.iter
    (fun target ->
      let holder, field = Old_space.take_slot old_pool in
      holder.O.fields.(field) <- addr target;
      Vec.push eden.(s.pos.(target) lsr pos_bits).R.remset
        (O.Field (holder, field)))
    s.anchors;
  Array.iter
    (fun target -> ignore (Simheap.Heap.new_root heap (addr target)))
    s.roots;
  s.stats

(** Generate the live graph for one cycle.  The caller must have reset the
    roots and the old-space holder pool. *)
let generate ~heap ~profile ~rng ~old_pool =
  instantiate ~heap ~old_pool
    (shape ~profile ~rng ~holders:(Old_space.holder_count old_pool))
