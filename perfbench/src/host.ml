(* What ran the numbers, and process-level resource readings.

   Host timings are comparable only between runs with the same
   fingerprint: a different CPU, domain count, compiler or build
   profile makes them a different experiment. *)

let first_line_with_prefix path prefix =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
      String.split_on_char '\n' text
      |> List.find_opt (fun l -> String.starts_with ~prefix l)

let cpu_model () =
  match first_line_with_prefix "/proc/cpuinfo" "model name" with
  | Some l -> (
      match String.index_opt l ':' with
      | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
      | None -> "unknown")
  | None -> "unknown"

type fingerprint = {
  cpu : string;
  nproc : int;
  ocaml : string;
  profile : string;
}

let fingerprint ~profile =
  {
    cpu = cpu_model ();
    nproc = Domain.recommended_domain_count ();
    ocaml = Sys.ocaml_version;
    profile;
  }

let fingerprint_id f =
  String.sub
    (Digest.to_hex
       (Digest.string
          (Printf.sprintf "%s|%d|%s|%s" f.cpu f.nproc f.ocaml f.profile)))
    0 12

let pp_fingerprint ppf f =
  Format.fprintf ppf "fingerprint %s: cpu=%S nproc=%d ocaml=%s profile=%s"
    (fingerprint_id f) f.cpu f.nproc f.ocaml f.profile

(* User + system CPU seconds of the whole process, all domains. *)
let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Peak resident set (VmHWM), MiB. *)
let peak_rss_mb () =
  match first_line_with_prefix "/proc/self/status" "VmHWM:" with
  | Some l -> (
      match
        String.split_on_char ' ' l |> List.filter (fun s -> s <> "") |> List.tl
      with
      | kb :: _ -> (
          match float_of_string_opt kb with Some kb -> kb /. 1024.0 | None -> nan)
      | [] -> nan)
  | None -> nan

(* ------------------------------------------------------------------ *)
(* Host-speed reference.

   On a shared host the simulator's speed drifts by 20-40% over minutes
   as neighbours load the memory system.  A fixed memory-bound kernel
   timed between passes drifts with it (per-pass correlation about 0.5 on
   the 2-core Xeon this was tuned on, enough to cut the spread of 5-pass
   medians threefold), so timings are reported at reference speed: raw
   seconds x [reference_nominal_s] / the kernel's time around them.  The
   kernel is part of the benchmark, not of the program under test, and
   must not change: both sides of a comparison divide by it.  nvmgc_bench
   runs it in a child process so its memory never shows in the measured
   process's heap or peak RSS. *)

let reference_kernel () =
  let n = 1 lsl 22 in
  let a = Array.make n 0 in
  let h = Hashtbl.create 4096 in
  let s = ref 12345 in
  for i = 1 to 2_200_000 do
    s := ((!s * 1103515245) + 12345) land 0x3fffffff;
    let j = !s land (n - 1) in
    a.(j) <- a.(j) + i;
    if i land 7 = 0 then Hashtbl.replace h (j land 0xffff) (float_of_int i)
  done;
  let l = List.init 150_000 (fun i -> ((i * 7919) land 0xfffff, float_of_int i)) in
  a.(0) + Hashtbl.length h + List.length (List.sort compare l)

(* The kernel's time on the host the benchmark was tuned on.  A unit
   choice, not a baseline: it cancels in any same-host comparison. *)
let reference_nominal_s = 0.25
