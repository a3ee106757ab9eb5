(* Host-time benchmark of the NVM-GC simulator.

   nvmgc_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
   nvmgc_bench --pin --workload NAME --seed N

   Run from the repository root (the pins are read from
   perfbench/pins.txt).  Sets the workload up (process start, workload
   table, pool spawn and a warm-up unit, medians of repeated runs), then
   repeats the workload's fixed work in passes for about S seconds (at
   least two passes) and prints every metric with its unit, ending with a
   one-line JSON result.  Host times are scaled to reference speed by a
   reference kernel timed around each pass (see Host).  Every pass's
   simulated output is digested; the passes must agree with each other
   and with the pin for the seed, if there is one, or every unit of the
   run counts as failed.

   --trace 1 alternates untraced passes with traced ones and prints the
   per-layer metrics instead; see perfbench/README.md.  --pin runs one
   single-domain pass and prints the pin line for the seed. *)

open Perfbench

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("nvmgc_bench: " ^ s); exit 2) fmt

type args = {
  mutable workload : string;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable pin : bool;
}

let parse_args () =
  let a =
    {
      workload = "";
      seed = 42;
      seconds = 10.0;
      trace = false;
      pin = false;
    }
  in
  let spec =
    [
      ("--workload", Arg.String (fun s -> a.workload <- s), "NAME workload");
      ("--seed", Arg.Int (fun n -> a.seed <- n), "N workload seed (default 42)");
      ( "--seconds",
        Arg.Float (fun s -> a.seconds <- s),
        "S measure for about S seconds (default 10)" );
      ( "--trace",
        Arg.Int
          (function
          | 0 -> a.trace <- false
          | 1 -> a.trace <- true
          | n -> raise (Arg.Bad (Printf.sprintf "--trace %d: expected 0 or 1" n))),
        "0|1 per-layer traced run" );
      ("--pin", Arg.Unit (fun () -> a.pin <- true), " print the pin line for the seed");
    ]
  in
  Arg.parse spec
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "nvmgc_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]";
  a

(* Wall seconds for this executable to start with [flag], do what the
   flag asks and exit. *)
let child_s flag =
  let t0 = Unix.gettimeofday () in
  let pid =
    Unix.create_process Sys.executable_name [| Sys.executable_name; flag |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _ -> fail "child %s failed" flag);
  Unix.gettimeofday () -. t0

let process_start_s () =
  Metric.median (List.init Report.setup_reps (fun _ -> child_s "--probe-start"))

(* One run of the host-speed reference kernel ({!Host.reference_kernel}). *)
let reference_s () = child_s "--reference"

(* Median seconds to build the workload table, spawn its pool and run
   the warm-up unit (a one-unit pass through the same entry points). *)
let in_process_setup_s name ~seed =
  let once () =
    let t0 = Unix.gettimeofday () in
    let w = Option.get (Suite.find name) in
    let p = Suite.run_pass (Suite.warmup w) ~seed in
    if Suite.unit_failures p > 0 then fail "warm-up unit failed";
    Unix.gettimeofday () -. t0
  in
  Metric.median (List.init Report.setup_reps (fun _ -> once ()))

(* Passes of [next i] until [seconds] would be overrun by one more pass
   like the last, and at least [min_passes].  The reference kernel runs
   before the first pass and after each one; a pass is paired with the
   mean of the two runs around it. *)
let run_passes ~seconds next =
  let deadline = Unix.gettimeofday () +. seconds in
  let rec go i ref_before acc =
    let p = next i in
    let ref_after = reference_s () in
    let acc = (p, (ref_before +. ref_after) /. 2.0) :: acc in
    if
      i + 1 >= Report.min_passes
      && Unix.gettimeofday () +. p.Suite.wall_s +. ref_after > deadline
    then List.rev acc
    else go (i + 1) ref_after acc
  in
  go 0 (reference_s ()) []

let print_pass kind i ((p : Suite.pass), ref_s) =
  Printf.printf
    "pass %d (%s, jobs %d): wall %.3f s, cpu %.3f s, reference %.3f s, %d units, \
     %d failed, digest %s\n"
    (i + 1) kind p.Suite.jobs p.Suite.wall_s p.Suite.cpu_s ref_s
    (Array.length p.Suite.units) (Suite.unit_failures p) p.Suite.digest;
  (* The first few failures, for diagnosis; the count is above. *)
  Array.to_list p.Suite.units
  |> List.mapi (fun j u -> (j, u.Suite.error))
  |> List.filter_map (fun (j, e) -> Option.map (fun e -> (j, e)) e)
  |> List.filteri (fun k _ -> k < 3)
  |> List.iter (fun (j, e) -> Printf.eprintf "unit %d failed: %s\n" j e)

let print_metric (m : Metric.value) note =
  Printf.printf "%-34s %.6g %s%s\n" m.Metric.name m.Metric.value m.Metric.unit_
    (if note = "" then "" else "  (" ^ note ^ ")")

let () =
  if Array.length Sys.argv = 2 then begin
    match Sys.argv.(1) with
    | "--probe-start" -> exit 0
    | "--reference" ->
        ignore (Sys.opaque_identity (Host.reference_kernel ()));
        exit 0
    | _ -> ()
  end;
  let a = parse_args () in
  let w =
    match Suite.find a.workload with
    | Some w -> w
    | None ->
        fail "unknown workload %S (expected one of: %s)" a.workload
          (String.concat ", " Suite.names)
  in
  let fp = Host.fingerprint ~profile:Build_info.profile in
  Format.printf "%a@." Host.pp_fingerprint fp;
  if Build_info.profile <> "release" then
    fail
      "refusing to measure a %s-profile build: build with --profile release \
       (the dev profile's -opaque disables cross-module inlining)"
      Build_info.profile;
  if a.pin then begin
    let p = Suite.run_pass w ~seed:a.seed ~jobs:1 in
    if Suite.unit_failures p > 0 then fail "%d units failed" (Suite.unit_failures p);
    print_endline (Pin.line ~workload:w.Suite.name ~seed:a.seed p.Suite.digest);
    exit 0
  end;
  let pins = try Pin.load "perfbench/pins.txt" with Sys_error e | Failure e -> fail "pins: %s" e in
  Printf.printf "workload %s, seed %d, %d units per pass, jobs %d, %s\n%!" w.Suite.name
    a.seed (Suite.units_per_pass w) w.Suite.jobs
    (if a.trace then "traced" else "untraced");
  let ref_before = reference_s () in
  let start_s = process_start_s () in
  let warm_s = in_process_setup_s w.Suite.name ~seed:a.seed in
  let ref_s = (ref_before +. reference_s ()) /. 2.0 in
  Printf.printf
    "setup: process start %.6f s + table, pool and warm-up %.6f s (medians of \
     %d), reference %.3f s\n"
    start_s warm_s Report.setup_reps ref_s;
  let setup_s = (start_s +. warm_s) *. Host.reference_nominal_s /. ref_s in
  let run ?traced ?jobs () = Suite.run_pass ?traced ?jobs w ~seed:a.seed in
  let untraced, traced, extra =
    if not a.trace then (run_passes ~seconds:a.seconds (fun _ -> run ()), [], [])
    else
      let all = run_passes ~seconds:a.seconds (fun i -> run ~traced:(i mod 2 = 1) ()) in
      let traced = List.filteri (fun i _ -> i mod 2 = 1) all
      and untraced = List.filteri (fun i _ -> i mod 2 = 0) all in
      let extra =
        (* Hostprof attributes on one domain only: a pooled workload gets
           one extra single-domain traced pass for the layer shares. *)
        if (fst (List.hd traced)).Suite.jobs > 1 then begin
          let ref_before = reference_s () in
          let p = run ~traced:true ~jobs:1 () in
          [ (p, (ref_before +. reference_s ()) /. 2.0) ]
        end
        else []
      in
      (untraced, traced, extra)
  in
  List.iteri
    (fun i p -> print_pass (if i < List.length untraced then "untraced" else "traced") i p)
    (untraced @ traced @ extra);
  let all = List.map fst (untraced @ traced @ extra) in
  let attempted = List.fold_left (fun n p -> n + Array.length p.Suite.units) 0 all in
  let unit_failures = List.fold_left (fun n p -> n + Suite.unit_failures p) 0 all in
  let verdict =
    Pin.verdict
      ~pin:(Pin.find pins ~workload:w.Suite.name ~seed:a.seed)
      ~digests:(List.map (fun p -> p.Suite.digest) all)
  in
  let failed = Pin.failed verdict ~attempted ~unit_failures in
  Printf.printf "digest %s: %s\n" (List.hd all).Suite.digest (Pin.describe verdict);
  Printf.printf "%-34s %.6g  (%d of %d units)\n" "failed_frac"
    (float_of_int failed /. float_of_int attempted) failed attempted;
  Printf.printf "host times below are at reference speed (reference kernel %.3f s)\n"
    Host.reference_nominal_s;
  let scaled = List.map (fun (p, ref_s) -> Report.at_reference_speed p ~ref_s) in
  let metrics =
    if not a.trace then begin
      let e2e = Report.end_to_end w (scaled untraced) ~setup_s in
      List.iter (fun (m, note) -> print_metric m note) e2e;
      Printf.printf "simulated counts per pass (exact):\n";
      List.iter (fun m -> print_metric m "") (Report.sim_counts (fst (List.hd untraced)));
      (match Suite.fig5_ratios w (fst (List.hd untraced)) with
      | Some (all_r, wc_r) ->
          Printf.printf
            "fig5 (informational, unranked): mean GC-time +all/vanilla %.2fx \
             (paper 1.69x), +writecache/vanilla %.2fx (paper 1.17x); the \
             model is validated for shape only, at reduced GC counts\n"
            all_r wc_r
      | None -> ());
      List.map fst e2e
    end
    else begin
      let profiles =
        List.filter_map (fun (p, _) -> p.Suite.profile) (traced @ extra)
      in
      List.iter
        (fun (pr : Suite.profile) ->
          Printf.printf "hostprof: %d samples (%s)\n" pr.Suite.samples
            (String.concat ", "
               (List.map (fun (n, k) -> Printf.sprintf "%s %d" n k) pr.Suite.phase_samples)))
        profiles;
      let pl =
        Report.per_layer w ~untraced:(scaled untraced) ~traced:(scaled traced) ~profiles
      in
      List.iter (fun m -> print_metric m "") pl;
      pl
    end
  in
  print_endline
    (Metric.result_line ~correct:(failed = 0) ~attempted ~failed metrics)
