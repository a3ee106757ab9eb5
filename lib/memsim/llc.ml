(** Last-level cache model.

    A set-associative cache with LRU replacement over 64-byte lines.  The
    GC's copy-and-traverse phase has poor locality (paper §2.2), so what
    matters is (a) whether an access misses, (b) whether a software
    prefetch hid part of the miss latency (§4.3), and (c) where dirty
    lines go when they are evicted: a write that hits in cache still costs
    the device a write-back later, which is how the random header and
    reference updates of vanilla G1 turn into the NVM write traffic the
    paper measures.

    Prefetched lines carry a flag: the first demand access to such a line
    is charged only a residual fraction of the miss latency.

    The paper's Intel CAT experiment (restricting GC to 1/16 of the LLC)
    maps onto the [capacity_bytes] knob. *)

let line_bytes = 64

type set = {
  tags : int array;  (** line ids; -1 = invalid *)
  fps : int array;
      (** packed 8-bit fingerprints of the resident lines, 7 ways per
          native int in 9-bit lanes; an absent way's lane holds 0x100,
          which no 8-bit fingerprint can equal.  Lookups scan these words
          with a SWAR equal-lane test instead of walking [tags] — one ALU
          probe covers 7 ways.  The lane test can report false positives
          (borrow propagation in the subtraction trick), never false
          negatives, so candidates are confirmed against [tags]. *)
  mutable prefetched : int;  (** bitmask over ways *)
  mutable dirty : int;  (** bitmask over ways *)
  mutable nvm : int;  (** bitmask: line belongs to the NVM space *)
  mutable seqw : int;
      (** bitmask: line was dirtied by a sequential (streaming) write, so
          its eventual write-back drains at the sequential rate *)
  stamp : int array;
      (** stamp.(i) = cache-global tick of way i's last touch; the victim
          is the smallest stamp.  Initialized to distinct negative values
          so untouched ways are evicted highest-index-first, matching the
          age-rank scheme this replaces (stamps stay pairwise distinct,
          so the LRU choice is always unique). *)
  mutable hint : int;
      (** way of the most recent hit/install — checked before the full
          way scan.  A line is resident in at most one way, so the hint
          can only short-circuit to the same answer the scan would give
          (header + field accesses to one object often share a line). *)
}

type t = {
  nsets : int;
  set_mask : int;  (** nsets - 1; nsets is a power of two *)
  ways : int;
  sets : set array;
  mutable tick : int;  (** monotone touch counter feeding [stamp] *)
  (* Run write-back buffer: the dirty evictions of the last {!access}
     or {!prefetch} accumulate here (no option is allocated — the walk
     runs millions of times per simulated pause), so a whole contiguous
     N-line run is walked without draining between probes.  Each entry
     packs the eviction's nvm (bit 0) and seq (bit 1) flags — the
     write-back charge needs nothing else. *)
  mutable run_wb : int array;
  mutable run_wb_len : int;
  mutable hits : int;
  mutable misses : int;
  mutable prefetch_hits : int;
  mutable prefetch_issued : int;
  mutable writebacks : int;
}

(* Fingerprint packing: 7 ways per word, 9-bit lanes (7 * 9 = 63 bits,
   the full native int).  The 9th lane bit lets the absent marker 0x100
   sit outside the 8-bit fingerprint range and doubles as the SWAR
   match-detect bit. *)
let fp_lanes = 7
let fp_shift = 9
let fp_lane_mask = 0x1FF
let fp_absent = 0x100

let fp_low =
  (* bit 0 of every lane *)
  let rec go l acc =
    if l >= fp_lanes then acc else go (l + 1) (acc lor (1 lsl (fp_shift * l)))
  in
  go 0 0

let fp_high = fp_low lsl 8 (* bit 8 of every lane *)
let fp_absent_word = fp_absent * fp_low

let create ~capacity_bytes ~ways =
  let ways = max 1 ways in
  let lines = max ways (capacity_bytes / line_bytes) in
  let nsets_raw = max 1 (lines / ways) in
  (* round set count down to a power of two for cheap indexing *)
  let rec pow2 acc = if acc * 2 > nsets_raw then acc else pow2 (acc * 2) in
  let nsets = pow2 1 in
  let fp_words = (ways + fp_lanes - 1) / fp_lanes in
  {
    nsets;
    set_mask = nsets - 1;
    ways;
    sets =
      Array.init nsets (fun _ ->
          {
            tags = Array.make ways (-1);
            fps = Array.make fp_words fp_absent_word;
            prefetched = 0;
            dirty = 0;
            nvm = 0;
            seqw = 0;
            stamp = Array.init ways (fun i -> -i);
            hint = 0;
          });
    tick = 1;
    run_wb = Array.make 64 0;
    run_wb_len = 0;
    hits = 0;
    misses = 0;
    prefetch_hits = 0;
    prefetch_issued = 0;
    writebacks = 0;
  }

let capacity_bytes t = t.nsets * t.ways * line_bytes

(* Mix the line id so that strided heap layouts spread over sets.  The
   multiply keeps the id non-negative on 63-bit ints for any heap-sized
   line id, and nsets is a power of two, so masking == mod.  The set
   index takes the hash's low bits; the fingerprint takes 8 bits from
   the middle so the two stay decorrelated within a set. *)
let[@inline] hash_line line = line * 0x9E3779B1 land max_int
let fp_of_hash h = (h lsr 24) land 0xff

let[@inline] touch t set way =
  set.stamp.(way) <- t.tick;
  t.tick <- t.tick + 1

(* Way holding [line], or -1: scan the packed fingerprint words and
   confirm candidate lanes (false positives only) against [tags].  The
   lane loop is bounded by [ways], never the lane count — the tail word's
   spare lanes hold [fp_absent] and under [-unsafe] an unchecked
   [tags] read past [ways] must stay unreachable.  Pure: mutates no
   LRU/hint state. *)
(* The scan/confirm recursions live at top level with all state passed
   as arguments: a captured local [let rec] costs a closure allocation
   per call in classic (non-flambda) ocamlopt, and this probe runs once
   per simulated memory access. *)
let rec fp_confirm (tags : int array) (line : int) m base limit l =
  if l >= limit then -1
  else if
    m land (1 lsl ((l * fp_shift) + 8)) <> 0 && tags.(base + l) = line
  then base + l
  else fp_confirm tags line m base limit (l + 1)

let rec fp_scan (fps : int array) tags nwords needle line ways w =
  if w >= nwords then -1
  else begin
    (* lanes equal to the needle become 0; the classic haszero mask sets
       the high lane bit of every zero lane (and, via borrows, possibly
       of lanes just above one) *)
    let x = fps.(w) lxor needle in
    let m = (x - fp_low) land lnot x land fp_high in
    if m = 0 then fp_scan fps tags nwords needle line ways (w + 1)
    else begin
      let base = w * fp_lanes in
      (* [if]-form rather than [min]: polymorphic [min] is a generic
         compare call under classic ocamlopt, on the hottest path of the
         whole simulator. *)
      let d = ways - base in
      let limit = if d < fp_lanes then d else fp_lanes in
      match fp_confirm tags line m base limit 0 with
      | -1 -> fp_scan fps tags nwords needle line ways (w + 1)
      | way -> way
    end
  end

let[@inline] fp_probe set line ~fp ~ways =
  fp_scan set.fps set.tags (Array.length set.fps) (fp * fp_low) line ways 0

let[@inline] find_way t set line ~fp =
  if set.tags.(set.hint) = line then set.hint
  else begin
    let way = fp_probe set line ~fp ~ways:t.ways in
    if way >= 0 then set.hint <- way;
    way
  end

(* Record way [way]'s fingerprint (or [fp_absent]) in the packed words. *)
let set_fp set way fp =
  let w = way / fp_lanes and sh = way mod fp_lanes * fp_shift in
  set.fps.(w) <- set.fps.(w) land lnot (fp_lane_mask lsl sh) lor (fp lsl sh)

(* Top level for the same no-closure reason as [fp_scan]. *)
let rec victim_loop (stamp : int array) n i best =
  if i >= n then best
  else
    victim_loop stamp n (i + 1) (if stamp.(i) < stamp.(best) then i else best)

let victim_way set = victim_loop set.stamp (Array.length set.stamp) 1 0

type outcome = Hit | Miss | Prefetched_hit

let run_wb_push t flags =
  let n = t.run_wb_len in
  if n >= Array.length t.run_wb then begin
    let bigger = Array.make (2 * Array.length t.run_wb) 0 in
    Array.blit t.run_wb 0 bigger 0 n;
    t.run_wb <- bigger
  end;
  t.run_wb.(n) <- flags;
  t.run_wb_len <- n + 1

(* Install [line] in [set], evicting the LRU way.  Returns the way used;
   a dirty eviction is appended to the run buffer. *)
let install t set line ~fp ~write ~seq ~nvm =
  let way = victim_way set in
  let bit = 1 lsl way in
  if set.dirty land bit <> 0 && set.tags.(way) >= 0 then begin
    t.writebacks <- t.writebacks + 1;
    run_wb_push t
      ((if set.nvm land bit <> 0 then 1 else 0)
      lor if set.seqw land bit <> 0 then 2 else 0)
  end;
  set.tags.(way) <- line;
  set_fp set way fp;
  set.prefetched <- set.prefetched land lnot bit;
  set.dirty <- (if write then set.dirty lor bit else set.dirty land lnot bit);
  set.seqw <-
    (if write && seq then set.seqw lor bit else set.seqw land lnot bit);
  set.nvm <- (if nvm then set.nvm lor bit else set.nvm land lnot bit);
  set.hint <- way;
  touch t set way;
  way

(* One line of a run: look up (and on miss, fill) the line, counting the
   outcome; evictions are buffered. *)
let[@inline] run_line t h line ~write ~seq ~nvm =
  let fp = fp_of_hash h in
  let set = t.sets.(h land t.set_mask) in
  let way = find_way t set line ~fp in
  if way >= 0 then begin
    touch t set way;
    let bit = 1 lsl way in
    if write then begin
      set.dirty <- set.dirty lor bit;
      if seq then set.seqw <- set.seqw lor bit
    end;
    if set.prefetched land bit <> 0 then begin
      set.prefetched <- set.prefetched land lnot bit;
      t.prefetch_hits <- t.prefetch_hits + 1;
      Prefetched_hit
    end
    else begin
      t.hits <- t.hits + 1;
      Hit
    end
  end
  else begin
    t.misses <- t.misses + 1;
    ignore (install t set line ~fp ~write ~seq ~nvm : int);
    Miss
  end

(* [hash_line] stride for consecutive lines: [land max_int] is a mod-2^62
   mask and multiplication distributes over addition mod 2^63, so
   [hash_line (l + 1) = (hash_line l + 0x9E3779B1) land max_int]
   exactly — the walk steps the hash instead of remultiplying. *)
let hash_step = 0x9E3779B1

(** Walk the [lines] contiguous cache lines starting at [addr], one
    {!run_line} each, with dirty evictions appended to the run buffer
    (valid until the next walk).  Returns the FIRST line's outcome — the
    only one the latency charge depends on.  Allocation-free. *)
let access t addr ~lines ~write ~seq ~nvm =
  t.run_wb_len <- 0;
  let line = addr / line_bytes in
  let h = hash_line line in
  let first = run_line t h line ~write ~seq ~nvm in
  let hr = ref h and lr = ref line in
  for _ = 2 to lines do
    hr := (!hr + hash_step) land max_int;
    lr := !lr + 1;
    ignore (run_line t !hr !lr ~write ~seq ~nvm : outcome)
  done;
  first

let run_wb_count t = t.run_wb_len
let run_wb_nvm t i = t.run_wb.(i) land 1 <> 0
let run_wb_seq t i = t.run_wb.(i) land 2 <> 0

(** Insert a line ahead of use; the next demand access reports
    [Prefetched_hit].  Idempotent on resident lines.  Returns whether the
    line was actually fetched (false = already resident, no device
    traffic); any dirty eviction the insertion forced is left in the
    run buffer.  Allocation-free. *)
let prefetch t addr ~nvm =
  t.run_wb_len <- 0;
  let line = addr / line_bytes in
  let h = hash_line line in
  let fp = fp_of_hash h in
  let set = t.sets.(h land t.set_mask) in
  t.prefetch_issued <- t.prefetch_issued + 1;
  let way = find_way t set line ~fp in
  if way >= 0 then begin
    (* Already resident: re-mark so the consumer still sees the cheap
       path (prefetching a resident line costs nothing extra). *)
    set.prefetched <- set.prefetched lor (1 lsl way);
    false
  end
  else begin
    let way = install t set line ~fp ~write:false ~seq:false ~nvm in
    set.prefetched <- set.prefetched lor (1 lsl way);
    true
  end

(* Pure residency query: is the line containing [addr] resident and
   dirty?  Used by the crash model — dirty lines die with the cache, so
   an NVM address whose line sits dirty here has not reached the device.
   Deliberately avoids [find_way]: no LRU stamp or way-hint mutation, so
   querying is pure observation ([fp_probe] mutates nothing). *)
let line_dirty t addr =
  let line = addr / line_bytes in
  let h = hash_line line in
  let set = t.sets.(h land t.set_mask) in
  let way = fp_probe set line ~fp:(fp_of_hash h) ~ways:t.ways in
  way >= 0 && set.dirty land (1 lsl way) <> 0

(** Invalidate everything (used between independent simulation phases);
    dirty contents are discarded, not written back. *)
let clear t =
  Array.iter
    (fun set ->
      Array.fill set.tags 0 (Array.length set.tags) (-1);
      Array.fill set.fps 0 (Array.length set.fps) fp_absent_word;
      set.prefetched <- 0;
      set.dirty <- 0;
      set.nvm <- 0;
      set.seqw <- 0)
    t.sets

let hits t = t.hits
let misses t = t.misses
let prefetch_hits t = t.prefetch_hits
let prefetch_issued t = t.prefetch_issued
let writebacks t = t.writebacks

let miss_rate t =
  let total = t.hits + t.misses + t.prefetch_hits in
  if total = 0 then 0.0 else float_of_int t.misses /. float_of_int total
