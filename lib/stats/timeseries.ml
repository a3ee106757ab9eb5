(** Bucketed time series.

    Accumulates (time, value) contributions into fixed-width buckets so the
    experiments can render the paper's bandwidth-over-time curves
    (Figures 2, 3 and 7).  Time is in nanoseconds of simulated time; the
    bucket width is chosen by the caller (typically 1 ms of simulated
    time). *)

type t = {
  bucket_ns : float;
  mutable buckets : Float.Array.t;
      (** accumulated value per bucket; unboxed, so [add] allocates
          nothing — the recorder adds on every simulated access *)
  mutable len : int;  (** buckets in use *)
}

let create ~bucket_ns =
  if bucket_ns <= 0. then invalid_arg "Timeseries.create: bucket_ns <= 0";
  { bucket_ns; buckets = Float.Array.make 16 0.0; len = 0 }

let bucket_ns t = t.bucket_ns

let bucket_of t time_ns = int_of_float (time_ns /. t.bucket_ns)

let ensure t idx =
  if idx >= t.len then begin
    let cap = Float.Array.length t.buckets in
    if idx >= cap then begin
      let grown = Float.Array.make (max (idx + 1) (2 * cap)) 0.0 in
      Float.Array.blit t.buckets 0 grown 0 t.len;
      t.buckets <- grown
    end;
    t.len <- idx + 1
  end

(* [Stdlib.min]/[max] at type float: the polymorphic ones box both
   arguments. *)
let fmin (a : float) b = if a <= b then a else b
let fmax (a : float) b = if a >= b then a else b

let bump t idx v =
  Float.Array.unsafe_set t.buckets idx
    (Float.Array.unsafe_get t.buckets idx +. v)

(** [add t ~time_ns v] adds [v] to the bucket containing [time_ns]. *)
let add t ~time_ns v =
  let idx = max 0 (bucket_of t time_ns) in
  ensure t idx;
  bump t idx v

(** [add_spread t ~from_ns ~until_ns v] distributes [v] proportionally over
    the buckets spanned by the half-open interval.  Used to spread a large
    memory transfer's bytes over its simulated duration. *)
let add_spread t ~from_ns ~until_ns v =
  if until_ns <= from_ns then add t ~time_ns:from_ns v
  else if
    (* Hot path: the whole interval inside one bucket (typical for a
       single memory access against a 1 ms window) — one direct add, no
       proportional split (which would also round [v * total / total]). *)
    until_ns <= float_of_int (max 0 (bucket_of t from_ns) + 1) *. t.bucket_ns
  then add t ~time_ns:from_ns v
  else begin
    let total = until_ns -. from_ns in
    let first = max 0 (bucket_of t from_ns) in
    (* Last bucket overlapped by the half-open interval.  When [until_ns]
       lands exactly on a bucket boundary the interval stops at the
       previous bucket; subtracting an epsilon is not robust (it is
       absorbed for large timestamps and would leave a spurious empty
       trailing bucket), so compare against the candidate's start
       directly. *)
    let last =
      let cand = max first (bucket_of t until_ns) in
      if float_of_int cand *. t.bucket_ns >= until_ns then max first (cand - 1)
      else cand
    in
    ensure t last;
    for idx = first to last do
      let b_start = float_of_int idx *. t.bucket_ns in
      let b_end = b_start +. t.bucket_ns in
      let overlap = fmin until_ns b_end -. fmax from_ns b_start in
      if overlap > 0. then bump t idx (v *. overlap /. total)
    done
  end

let length t = t.len

let get t idx =
  if idx < 0 || idx >= t.len then invalid_arg "Timeseries.get";
  Float.Array.get t.buckets idx

let to_array t = Array.init t.len (Float.Array.get t.buckets)

(** Per-bucket rate assuming the accumulated value is in bytes: returns
    MB/s for each bucket. *)
let to_mbps t =
  let secs = t.bucket_ns *. 1e-9 in
  Array.map (fun bytes -> bytes /. 1e6 /. secs) (to_array t)

let total t =
  let acc = ref 0.0 in
  for i = 0 to t.len - 1 do
    acc := !acc +. Float.Array.get t.buckets i
  done;
  !acc

(** [resample t n] folds the series into exactly [n] coarse points by
    averaging, for compact textual output of long traces. *)
let resample t n =
  let len = t.len in
  if len = 0 || n <= 0 then [||]
  else if n >= len then
    (* Identity: nothing to fold, and the epsilon arithmetic below is
       not exact enough to be trusted with per = 1. *)
    to_array t
  else begin
    let out = Array.make (min n len) 0.0 in
    let m = Array.length out in
    let per = float_of_int len /. float_of_int m in
    for i = 0 to m - 1 do
      let lo = int_of_float (float_of_int i *. per) in
      let hi =
        max lo
          (min (len - 1)
             (int_of_float ((float_of_int (i + 1) *. per) -. 1e-9)))
      in
      let acc = ref 0.0 in
      for j = lo to hi do
        acc := !acc +. Float.Array.get t.buckets j
      done;
      out.(i) <- !acc /. float_of_int (hi - lo + 1)
    done;
    out
  end
