(* Metric names, summary statistics and the one-line JSON result.

   Everything here is pure so the self-tests can pin the rules the
   benchmark's numbers rest on: which names are legal, how the median
   and the tail percentile are taken, and how a result line looks. *)

let is_alnum = function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false

(* 1-64 characters of [A-Za-z0-9_.-], starting with a letter or digit. *)
let valid_name s =
  let n = String.length s in
  n >= 1 && n <= 64
  && is_alnum s.[0]
  && String.for_all (fun c -> is_alnum c || c = '_' || c = '.' || c = '-') s

(* 1-16 characters of [A-Za-z0-9_/%.-]. *)
let valid_unit s =
  let n = String.length s in
  n >= 1 && n <= 16
  && String.for_all
       (fun c -> is_alnum c || c = '_' || c = '/' || c = '%' || c = '.' || c = '-')
       s

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median = function
  | [] -> nan
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Nearest-rank percentile: the smallest sample with at least [p]% of
   the samples at or below it.  The epsilon keeps a decimal [p] such as
   99.9 from rounding one rank up (99.9% of 10000 is 9990, not 9991). *)
let rank ~n p =
  max 1 (int_of_float (Float.ceil ((p *. float_of_int n /. 100.0) -. 1e-9)))

(* Candidate tail percentiles, highest first. *)
let tail_ladder = [ 99.9; 99.5; 99.0; 95.0; 90.0; 75.0; 50.0 ]

let min_beyond = 10

(* The highest ladder percentile that leaves at least [min_beyond]
   samples above its rank when [n] samples are taken.  [None] below 20
   samples, where even the median has fewer than ten beyond it. *)
let tail_percentile n =
  List.find_opt (fun p -> n - rank ~n p >= min_beyond) tail_ladder

type tail = {
  pct : float;
  value : float;
  samples : int;
  beyond : int;  (** samples strictly greater than [value] *)
}

(* The tail of [xs] at the percentile the rule picks for [planned]
   samples — the count a run is guaranteed to reach, so the percentile
   does not change with how many extra samples a fast host fits in.
   @raise Invalid_argument when [xs] has fewer than [planned] samples or
   [planned] admits no percentile. *)
let tail ~planned xs =
  let n = List.length xs in
  if n < planned then invalid_arg "Metric.tail: fewer samples than planned";
  match tail_percentile planned with
  | None -> invalid_arg "Metric.tail: too few samples for any tail percentile"
  | Some pct ->
      let a = sorted xs in
      let value = a.(rank ~n pct - 1) in
      let beyond = Array.fold_left (fun k x -> if x > value then k + 1 else k) 0 a in
      { pct; value; samples = n; beyond }

let pp_pct ppf p =
  if Float.is_integer p then Format.fprintf ppf "p%.0f" p
  else Format.fprintf ppf "p%g" p

type value = { name : string; unit_ : string; value : float }

let v name unit_ value = { name; unit_; value }

(* JSON numbers carry every digit; non-finite values (a ratio with an
   empty base) have no JSON spelling and read as 0. *)
let json_number x =
  if not (Float.is_finite x) then "0"
  else if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let result_line ~correct ~attempted ~failed values =
  let metric m =
    Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
      (json_number m.value) m.unit_
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", " (List.map metric values))
