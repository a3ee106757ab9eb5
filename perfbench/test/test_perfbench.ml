(* Self-tests of the benchmark: the metric names it prints, the tail
   percentile rule, and how pinned digests turn into failed units. *)

open Perfbench

(* A few units of each workload kind, through the real entry points. *)
let tiny_campaigns =
  { Suite.name = "tiny-campaigns"; jobs = 1; kind = Suite.Campaigns { fuzz_cases = 9; crash_cases = 1 } }

let tiny_cells ~jobs =
  match (Option.get (Suite.find "scaling-sweep")).Suite.kind with
  | Suite.Cells c ->
      {
        Suite.name = "tiny-cells";
        jobs;
        kind =
          Suite.Cells
            {
              c with
              apps = [ Workloads.Apps.find "als"; Workloads.Apps.find "naive-bayes" ];
              variants =
                List.filter
                  (fun (v : Suite.variant) -> v.Suite.threads = Some 1 || v.Suite.threads = Some 56)
                  c.variants;
            };
      }
  | Suite.Campaigns _ -> assert false

(* ------------------------------------------------------------------ *)
(* Metric names *)

let benchmark_json () =
  let text = In_channel.with_open_bin "../../BENCHMARK.json" In_channel.input_all in
  match Nvmtrace.Json.of_string text with
  | Ok j -> j
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e

let declared key =
  match Nvmtrace.Json.member key (benchmark_json ()) with
  | Some (Nvmtrace.Json.List ms) ->
      List.map
        (fun m ->
          match (Nvmtrace.Json.member "name" m, Nvmtrace.Json.member "unit" m) with
          | Some (Nvmtrace.Json.Str n), Some (Nvmtrace.Json.Str u) -> (n, u)
          | _ -> Alcotest.failf "%s: entry without name/unit" key)
        ms
  | _ -> Alcotest.failf "BENCHMARK.json has no %s list" key

let test_name_rule () =
  List.iter
    (fun n -> Alcotest.(check bool) n true (Metric.valid_name n))
    [ "wall_s"; "nvmgc.hm_hit_ratio"; "p99-9"; "9lives" ];
  List.iter
    (fun n -> Alcotest.(check bool) (Printf.sprintf "%S rejected" n) false (Metric.valid_name n))
    [ ""; "_lead"; ".lead"; "has space"; "slash/name"; "pct%"; "q\"uote"; String.make 65 'a' ];
  Alcotest.(check bool) "64 chars accepted" true (Metric.valid_name (String.make 64 'a'));
  Alcotest.(check bool) "1/s unit" true (Metric.valid_unit "1/s");
  Alcotest.(check bool) "space in unit" false (Metric.valid_unit "per s")

let check_names key (values : Metric.value list) =
  let got = List.map (fun (m : Metric.value) -> (m.Metric.name, m.Metric.unit_)) values in
  List.iter
    (fun (n, u) ->
      Alcotest.(check bool) ("valid name " ^ n) true (Metric.valid_name n);
      Alcotest.(check bool) ("valid unit " ^ u) true (Metric.valid_unit u))
    got;
  Alcotest.(check (list (pair string string)))
    (key ^ " printed exactly as declared") (declared key) got

let test_printed_names_match_declaration () =
  let w = tiny_campaigns in
  let passes = List.init Report.min_passes (fun _ -> Suite.run_pass w ~seed:3) in
  check_names "end_to_end" (List.map fst (Report.end_to_end w passes ~setup_s:0.01));
  let traced = [ Suite.run_pass ~traced:true w ~seed:3 ] in
  let profiles = List.filter_map (fun p -> p.Suite.profile) traced in
  Alcotest.(check int) "single-domain traced pass is profiled" 1 (List.length profiles);
  check_names "per_layer" (Report.per_layer w ~untraced:passes ~traced ~profiles)

(* ------------------------------------------------------------------ *)
(* Tail percentile *)

let test_tail_rule () =
  Alcotest.(check (option (float 0.0))) "19 samples: none" None (Metric.tail_percentile 19);
  Alcotest.(check (option (float 0.0))) "20 samples: median" (Some 50.0) (Metric.tail_percentile 20);
  Alcotest.(check (option (float 0.0))) "48: p75" (Some 75.0) (Metric.tail_percentile 48);
  Alcotest.(check (option (float 0.0))) "260: p95" (Some 95.0) (Metric.tail_percentile 260);
  Alcotest.(check (option (float 0.0))) "1092: p99" (Some 99.0) (Metric.tail_percentile 1092);
  Alcotest.(check (option (float 0.0))) "10000: p99.9" (Some 99.9) (Metric.tail_percentile 10000);
  for n = 20 to 3000 do
    match Metric.tail_percentile n with
    | None -> Alcotest.failf "n=%d: no percentile" n
    | Some p ->
        let beyond q = n - Metric.rank ~n q in
        if beyond p < Metric.min_beyond then Alcotest.failf "n=%d p%g: %d beyond" n p (beyond p);
        List.iter
          (fun q ->
            if q > p && beyond q >= Metric.min_beyond then
              Alcotest.failf "n=%d: p%g qualifies above p%g" n q p)
          Metric.tail_ladder
  done

let test_tail_reports_count () =
  let xs = List.init 260 (fun i -> float_of_int (i + 1)) in
  let t = Metric.tail ~planned:260 xs in
  Alcotest.(check (float 0.0)) "percentile" 95.0 t.Metric.pct;
  Alcotest.(check (float 0.0)) "value (nearest rank)" 247.0 t.Metric.value;
  Alcotest.(check int) "samples" 260 t.Metric.samples;
  Alcotest.(check int) "beyond" 13 t.Metric.beyond;
  (* Extra samples do not change the percentile the plan fixed. *)
  let t' = Metric.tail ~planned:260 (List.init 400 (fun i -> float_of_int i)) in
  Alcotest.(check (float 0.0)) "percentile fixed by the plan" 95.0 t'.Metric.pct;
  Alcotest.check_raises "fewer samples than planned"
    (Invalid_argument "Metric.tail: fewer samples than planned") (fun () ->
      ignore (Metric.tail ~planned:260 (List.tl xs)))

(* ------------------------------------------------------------------ *)
(* Pins and failure accounting *)

let failed_frac ~pin passes =
  let attempted = List.fold_left (fun n p -> n + Array.length p.Suite.units) 0 passes in
  let unit_failures = List.fold_left (fun n p -> n + Suite.unit_failures p) 0 passes in
  let verdict = Pin.verdict ~pin ~digests:(List.map (fun p -> p.Suite.digest) passes) in
  float_of_int (Pin.failed verdict ~attempted ~unit_failures) /. float_of_int attempted

let test_corrupted_pin_fails_every_unit () =
  let passes = List.init 2 (fun _ -> Suite.run_pass tiny_campaigns ~seed:5) in
  let d = (List.hd passes).Suite.digest in
  let corrupted = String.map (fun c -> if c = '0' then '1' else '0') d in
  Alcotest.(check (float 0.0)) "matching pin" 0.0 (failed_frac ~pin:(Some d) passes);
  Alcotest.(check (float 0.0)) "no pin" 0.0 (failed_frac ~pin:None passes);
  Alcotest.(check (float 0.0)) "corrupted pin" 1.0 (failed_frac ~pin:(Some corrupted) passes);
  let other = Suite.run_pass tiny_campaigns ~seed:6 in
  Alcotest.(check (float 0.0)) "passes disagree" 1.0 (failed_frac ~pin:None (passes @ [ other ]))

let test_unit_failures_counted () =
  let p = Suite.run_pass tiny_campaigns ~seed:5 in
  let broken = { p with Suite.units = Array.mapi (fun i u -> if i = 0 then { u with Suite.error = Some "boom" } else u) p.Suite.units } in
  Alcotest.(check (float 1e-12)) "one failed unit of ten" 0.1 (failed_frac ~pin:None [ broken ])

let test_pin_file () =
  let pins = Pin.parse "# comment\nfuzz-crash 42 0123456789abcdef0123456789abcdef\n\n" in
  Alcotest.(check (option string)) "found" (Some "0123456789abcdef0123456789abcdef")
    (Pin.find pins ~workload:"fuzz-crash" ~seed:42);
  Alcotest.(check (option string)) "other seed" None (Pin.find pins ~workload:"fuzz-crash" ~seed:7);
  Alcotest.check_raises "malformed" (Failure "malformed pin line: fuzz-crash x") (fun () ->
      ignore (Pin.parse "fuzz-crash x"))

let test_every_workload_pinned () =
  let pins = Pin.load "../pins.txt" in
  List.iter
    (fun workload ->
      List.iter
        (fun seed ->
          if Pin.find pins ~workload ~seed = None then
            Alcotest.failf "%s has no pin for seed %d" workload seed)
        (42 :: List.init 20 (fun i -> i + 1)))
    Suite.names

let test_digest_independent_of_jobs () =
  let d jobs = (Suite.run_pass (tiny_cells ~jobs) ~seed:11).Suite.digest in
  Alcotest.(check string) "jobs 1 = jobs 2" (d 1) (d 2)

let () =
  Alcotest.run "perfbench"
    [
      ( "names",
        [
          Alcotest.test_case "name rule" `Quick test_name_rule;
          Alcotest.test_case "printed = declared" `Quick test_printed_names_match_declaration;
        ] );
      ( "tail",
        [
          Alcotest.test_case "percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "count reported" `Quick test_tail_reports_count;
        ] );
      ( "failures",
        [
          Alcotest.test_case "corrupted pin" `Quick test_corrupted_pin_fails_every_unit;
          Alcotest.test_case "unit failures" `Quick test_unit_failures_counted;
          Alcotest.test_case "pin file" `Quick test_pin_file;
          Alcotest.test_case "every workload pinned" `Quick test_every_workload_pinned;
          Alcotest.test_case "digest at jobs 1 and 2" `Quick test_digest_independent_of_jobs;
        ] );
    ]
