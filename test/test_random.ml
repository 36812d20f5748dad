(* Differential testing over randomly generated MiniC programs: the
   interpreter and the machine simulator must agree at every optimization
   level — including speculative ALAT promotion under a profile collected
   from the program's own run, and under an adversarially *wrong* profile
   (empty profile: everything looks speculative), which exercises check
   mis-speculation recovery. *)

module Config = Srp_core.Config
module Promote = Srp_core.Promote

let interp_reference src =
  let prog = Srp_frontend.Lower.compile_source src in
  let code, out, profile = Srp_profile.Interp.run_program prog in
  (code, out, profile)

(* The target program [run_seed] simulates for one level: the source
   lowered, promoted under [config] (none = O0) and compiled. *)
let compile_target ?(layout = true) ?(sched = true) ?(bundle = true)
    ?(split = true) ?(pressure = false) ?(prob = true) src config =
  let prog = Srp_frontend.Lower.compile_source src in
  (match config with
  | Some c ->
    (* with the pressure axis on, feed the promoter the same regalloc
       estimate the driver pipeline injects; off means no callback — the
       promoter's legacy ungated path, exactly `srp --no-pressure`.
       prob off folds into the config like the pipeline's `--no-prob`:
       the binary may-touch verdict, no expected-value debit *)
    let c = { c with Config.prob = c.Config.prob && prob } in
    let est =
      if pressure then Some (Srp_driver.Pipeline.pressure_fn prog) else None
    in
    ignore (Promote.run ~config:c ?pressure:est prog)
  | None -> ());
  let ra =
    if split then Srp_target.Regalloc.default_policy
    else Srp_target.Regalloc.closed_policy
  in
  Srp_target.Codegen.gen_program ~layout ~sched ~bundle ~ra prog

let machine_run ?layout ?sched ?bundle ?split ?pressure ?prob src config =
  let tgt =
    compile_target ?layout ?sched ?bundle ?split ?pressure ?prob src config
  in
  let code, out, _ = Srp_machine.Machine.run_program ~fuel:50_000_000 tgt in
  (code, out)

let check_level ?layout ?sched ?bundle ?split ?pressure ?prob src name
    expected config =
  let code, out =
    machine_run ?layout ?sched ?bundle ?split ?pressure ?prob src config
  in
  if out <> snd expected || code <> fst expected then
    Alcotest.failf "%s diverged!\n--- source ---\n%s\n--- expected ---\n%s--- got ---\n%s"
      name src (snd expected) out

(* the level sweep every seed goes through; the empty profile is the
   adversarial case: it claims nothing ever aliases, so every chi becomes
   speculative and the ALAT checks must repair all of it *)
let level_configs profile =
  let empty = Srp_profile.Alias_profile.create () in
  [ ("O0", None);
    ("conservative", Some Config.conservative);
    ("baseline(software)", Some Config.baseline);
    ("alat-heuristic", Some Config.alat_heuristic);
    ("alat-profile", Some (Config.alat ~profile));
    ("alat-wrong-profile", Some (Config.alat ~profile:empty)) ]

let run_seed seed =
  let src = Gen_minic.program ~seed () in
  let code, out, profile = interp_reference src in
  let expected = (code, out) in
  List.iter
    (fun (name, config) ->
      check_level src (Fmt.str "seed %d %s" seed name) expected config)
    (level_configs profile);
  (* conservative promotion must also be interpretable *)
  let prog = Srp_frontend.Lower.compile_source src in
  Test_alias.check_containment ~what:(Fmt.str "seed %d" seed) prog;
  ignore (Promote.run ~config:Config.conservative prog);
  Test_alias.check_containment ~what:(Fmt.str "seed %d promoted" seed) prog;
  let _, out2, _ = Srp_profile.Interp.run_program ~collect_profile:false prog in
  if out2 <> out then Alcotest.failf "conservative interp diverged for seed %d" seed

(* every level crossed with the backend ablation axes:
   {layout,sched,bundle,split,pressure,prob} on/off.  Pressure-on runs
   the gated promoter with the pipeline's regalloc estimate; pressure-off
   is the legacy ungated path (`srp --no-pressure`).  Sched-on runs the
   pre-bundle list scheduler, which may only move cycle-family counters.
   Prob-on folds per-site conflict rates into the speculation gate;
   prob-off is the binary may-touch verdict (`srp --no-prob`).  All must
   agree with the interpreter bit for bit — a gate may promote less or
   speculate differently, never compute differently.  The failure
   message carries the reproducing seed. *)
let default_combos =
  [ (true, true, true, true, true, true); (true, true, false, true, true, true);
    (false, true, true, true, true, false);
    (false, false, false, true, true, true);
    (true, false, true, true, true, false);
    (true, true, true, false, true, true);
    (false, false, false, false, true, true);
    (true, true, true, true, false, true);
    (true, false, true, false, false, false);
    (false, false, false, false, false, false) ]

let run_seed_matrix ?(combos = default_combos) seed =
  let src = Gen_minic.program ~seed () in
  let code, out, profile = interp_reference src in
  let expected = (code, out) in
  List.iter
    (fun (layout, sched, bundle, split, pressure, prob) ->
      List.iter
        (fun (name, config) ->
          check_level ~layout ~sched ~bundle ~split ~pressure ~prob src
            (Fmt.str
               "seed %d %s (layout=%b sched=%b bundle=%b split=%b \
                pressure=%b prob=%b)"
               seed name layout sched bundle split pressure prob)
            expected config)
        (level_configs profile))
    combos

let test_batch lo hi () =
  for seed = lo to hi do
    run_seed seed
  done

let test_matrix_batch lo hi () =
  for seed = lo to hi do
    run_seed_matrix seed
  done

(* SRP_FUZZ_ITERS=N runs N extra seeds through the full
   level x layout x sched x bundle x split matrix — off (0) in the
   default test run, used by the non-blocking CI fuzz jobs and for local
   soak testing.  SRP_FUZZ_SPLIT=0 focuses the sweep on the
   closed-interval allocator (split off across every layout/bundle
   combo), SRP_FUZZ_SCHED=0 on the unscheduled stream (sched off across
   the matrix), and SRP_FUZZ_PROB=0 on the binary-verdict speculation
   gate (prob off across the matrix), so the allocator paths, the
   scheduler ablation, and the legacy gate each get their own CI soak. *)
let fuzz_iters =
  match Sys.getenv_opt "SRP_FUZZ_ITERS" with
  | Some s -> ( try max 0 (int_of_string s) with _ -> 0)
  | None -> 0

let fuzz_combos =
  match
    ( Sys.getenv_opt "SRP_FUZZ_SPLIT",
      Sys.getenv_opt "SRP_FUZZ_SCHED",
      Sys.getenv_opt "SRP_FUZZ_PROB" )
  with
  | Some ("0" | "off" | "false"), _, _ ->
    [ (true, true, true, false, true, true);
      (true, true, false, false, true, true);
      (false, true, true, false, true, false);
      (false, false, false, false, true, true);
      (true, true, true, false, false, true);
      (false, false, false, false, false, false) ]
  | _, Some ("0" | "off" | "false"), _ ->
    [ (true, false, true, true, true, true);
      (true, false, false, true, true, true);
      (false, false, true, true, true, false);
      (false, false, false, true, true, true);
      (true, false, true, false, true, true);
      (true, false, true, true, false, false);
      (false, false, false, false, false, false) ]
  | _, _, Some ("0" | "off" | "false") ->
    [ (true, true, true, true, true, false);
      (true, true, false, true, true, false);
      (false, true, true, true, true, false);
      (false, false, false, true, true, false);
      (true, true, true, false, true, false);
      (true, true, true, true, false, false);
      (false, false, false, false, false, false) ]
  | _ -> default_combos

let test_fuzz_sweep () =
  for seed = 10_000 to 10_000 + fuzz_iters - 1 do
    run_seed_matrix ~combos:fuzz_combos seed
  done

(* A couple of adversarial hand-picked shapes the generator rarely hits. *)
let test_alias_storm () =
  (* every pointer aimed at the same scalar: constant real collisions *)
  let src = {|
int g = 3;
int h = 4;
int* p0; int* p1; int* p2;
int checksum;
int main() {
  p0 = &g; p1 = &g; p2 = &h;
  int i;
  for (i = 0; i < 30; i = i + 1) {
    checksum = checksum + g;
    *p0 = checksum % 13;
    checksum = checksum + g + h;
    *p1 = g + 1;
    *p2 = h + 1;
    checksum = checksum + g - h;
  }
  print_int(checksum); print_int(g); print_int(h);
  return 0;
}
|} in
  let code, out, profile = interp_reference src in
  check_level src "storm O0" (code, out) None;
  check_level src "storm alat" (code, out) (Some (Config.alat ~profile));
  let empty = Srp_profile.Alias_profile.create () in
  check_level src "storm alat wrong-profile" (code, out) (Some (Config.alat ~profile:empty))

let test_self_aliasing_walk () =
  (* a pointer that walks over the array it is also read through *)
  let src = {|
int arr[16];
int* w;
int checksum;
int main() {
  int i;
  for (i = 0; i < 16; i = i + 1) { arr[i] = i; }
  w = &arr[0];
  for (i = 0; i < 15; i = i + 1) {
    checksum = checksum + *w;
    arr[(i + 1) % 16] = *w + 2;
    checksum = checksum + *w;
    w = w + 1;
  }
  print_int(checksum);
  return 0;
}
|} in
  let code, out, profile = interp_reference src in
  check_level src "walk O0" (code, out) None;
  check_level src "walk baseline" (code, out) (Some Config.baseline);
  check_level src "walk alat" (code, out) (Some (Config.alat ~profile))

let suite =
  [ Alcotest.test_case "random differential seeds 1-40" `Quick (test_batch 1 40);
    Alcotest.test_case "random differential seeds 41-80" `Quick (test_batch 41 80);
    Alcotest.test_case "random differential seeds 81-120" `Slow (test_batch 81 120);
    Alcotest.test_case "random differential seeds 121-200" `Slow (test_batch 121 200);
    Alcotest.test_case "matrix differential seeds 1-10 (layout x bundle)" `Quick
      (test_matrix_batch 1 10);
    Alcotest.test_case "matrix differential seeds 11-30 (layout x bundle)" `Slow
      (test_matrix_batch 11 30);
    Alcotest.test_case
      (Fmt.str "fuzz sweep (SRP_FUZZ_ITERS=%d)" fuzz_iters)
      `Quick test_fuzz_sweep;
    Alcotest.test_case "alias storm" `Quick test_alias_storm;
    Alcotest.test_case "self-aliasing pointer walk" `Quick test_self_aliasing_walk ]
