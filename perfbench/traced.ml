(* The traced pass's build: Pipeline.profile_compile_run taken apart into
   the public entry points of each layer, with a span around every call.

   The stage composition, the content keys and the store are the
   pipeline's own (Stage.Key, Stage.get), so the traced pass does the same
   work, hits the same artifacts and must produce the same run result,
   bit for bit, as the untraced pass through Pipeline. *)

open Srp_driver
module Program = Srp_ir.Program

type opts = { split : bool; sched : bool; prob : bool; pressure : bool }

let default = { split = true; sched = true; prob = true; pressure = true }

(* Work counts that only the traced pass sees: bytes of MiniC lowered,
   and interpreter steps of train profiles. *)
let source_bytes = Atomic.make 0
let interp_steps = Atomic.make 0

let reset_counts () =
  Atomic.set source_bytes 0;
  Atomic.set interp_steps 0

let span = Spans.span

let get store ~key build = Stage.get (Some store) ~key ~build

let lower store source =
  let key = Stage.Key.lower ~source in
  ( key,
    Stage.as_lowered
      (get store ~key (fun () ->
           span ~layer:"frontend" "lower" (fun () ->
               ignore (Atomic.fetch_and_add source_bytes (String.length source));
               Stage.Lowered (Srp_frontend.Lower.compile_source source)))) )

let apply store ~lower_key lowered input =
  let key = Stage.Key.apply ~lower_key input in
  ( key,
    Stage.as_applied
      (get store ~key (fun () ->
           span ~layer:"driver" "apply-input" (fun () ->
               let prog = Program.clone lowered in
               Workload.apply_input prog input;
               Stage.Applied prog))) )

let train_profile store (w : Workload.t) =
  let lower_key, lowered = lower store w.Workload.source in
  let applied_key, applied = apply store ~lower_key lowered w.Workload.train in
  let key = Stage.Key.profile ~applied_key in
  Stage.as_profiled
    (get store ~key (fun () ->
         span ~layer:"profile" "interp" (fun () ->
             let interp = Srp_profile.Interp.create applied in
             ignore (Srp_profile.Interp.run interp);
             ignore
               (Atomic.fetch_and_add interp_steps
                  (Srp_profile.Interp.steps interp));
             Stage.Profiled (Srp_profile.Interp.profile interp))))

(* Promotion.  The alias analyses run inside Promote.run, once per round;
   their time there comes from the pass-statistics scope and is charged
   to the alias layer.  Steensgaard and Andersen are also driven once
   each on the round-1 input, so the two analyses get separate figures —
   those two "probe" spans are work the untraced pass does not do. *)
let promote store ~applied_key applied config =
  let config_fp =
    match config with
    | None -> "none"
    | Some c -> Stage.Key.config_fingerprint c
  in
  let key = Stage.Key.promote ~applied_key ~config:config_fp in
  let art =
    get store ~key (fun () ->
        match config with
        | None -> Stage.Applied applied
        | Some config ->
          let ir =
            span ~layer:"driver" "clone" (fun () -> Program.clone applied)
          in
          ignore
            (span ~layer:"alias" "steensgaard-probe" (fun () ->
                 Srp_alias.Steensgaard.run ir));
          ignore
            (span ~layer:"alias" "andersen-probe" (fun () ->
                 Srp_alias.Andersen.run ir));
          let estimate = Pipeline.pressure_fn ir in
          let pressure name =
            span ~layer:"target" "pressure-estimate" (fun () -> estimate name)
          in
          span ~layer:"core" "promote" (fun () ->
              let result, scope =
                Srp_obs.Stats.with_scope (fun () ->
                    Srp_core.Promote.run ~config ~pressure ir)
              in
              List.iter
                (fun (pass, name, _, secs) ->
                  if pass = "promote" && name = "alias" then
                    Spans.charge ~layer:"alias" "in-promote" secs)
                (Srp_obs.Stats.Scope.entries scope);
              Stage.Promoted (ir, Some result)))
  in
  let ir, result = Stage.as_promoted art in
  (key, ir, result)

let compile store ?profile (o : opts) ~input (w : Workload.t) level :
    Pipeline.compiled =
  let lower_key, lowered = lower store w.Workload.source in
  let applied_key, applied = apply store ~lower_key lowered input in
  let config =
    Option.map
      (fun (c : Srp_core.Config.t) ->
        { c with
          Srp_core.Config.pressure = c.Srp_core.Config.pressure && o.pressure;
          prob = c.Srp_core.Config.prob && o.prob })
      (Pipeline.config_of_level level profile)
  in
  let promote_key, ir, promote = promote store ~applied_key applied config in
  let select_key = Stage.Key.select ~promote_key in
  let sel =
    Stage.as_selected
      (get store ~key:select_key (fun () ->
           span ~layer:"target" "select" (fun () ->
               Stage.Selected (Srp_target.Codegen.select_program ir))))
  in
  let regalloc_key = Stage.Key.regalloc ~select_key ~split:o.split in
  let ra =
    if o.split then Srp_target.Regalloc.default_policy
    else Srp_target.Regalloc.closed_policy
  in
  let al =
    Stage.as_allocated
      (get store ~key:regalloc_key (fun () ->
           span ~layer:"target" "regalloc" (fun () ->
               Stage.Allocated (Srp_target.Codegen.alloc_program ~ra sel))))
  in
  let layout_key = Stage.Key.layout ~regalloc_key ~layout:true in
  let al =
    Stage.as_allocated
      (get store ~key:layout_key (fun () ->
           span ~layer:"target" "layout" (fun () ->
               Stage.Allocated (Srp_target.Codegen.layout_program al))))
  in
  let bundle_key = Stage.Key.bundle ~layout_key ~sched:o.sched ~bundle:true in
  let fns =
    Stage.as_bundled
      (get store ~key:bundle_key (fun () ->
           span ~layer:"target" "sched-bundle" (fun () ->
               Stage.Bundled
                 (Srp_target.Codegen.bundle_program ~sched:o.sched
                    ~bundle:true al))))
  in
  let target =
    span ~layer:"target" "assemble" (fun () ->
        Srp_target.Codegen.assemble_program ir fns)
  in
  { Pipeline.level; ablations = []; split = o.split; ir; target; promote }

let run ?fuel (c : Pipeline.compiled) : Pipeline.run_result =
  let m =
    span ~layer:"machine" "create" (fun () ->
        Srp_machine.Machine.create ?fuel c.Pipeline.target)
  in
  let exit_code =
    span ~layer:"machine" "run" (fun () -> Srp_machine.Machine.run m)
  in
  { Pipeline.compiled = c; exit_code;
    output = Srp_machine.Machine.output m;
    counters = Srp_machine.Machine.counters m;
    site_stats = Srp_machine.Machine.site_stats m }

(* Pipeline.profile_compile_run ~cache:store, traced. *)
let profile_compile_run ?fuel ~store ?(opts = default) (w : Workload.t) level =
  span ~layer:"driver" "build" (fun () ->
      let profile =
        match level with
        | Pipeline.Alat -> Some (train_profile store w)
        | O0 | Conservative | Baseline | Alat_heuristic -> None
      in
      run ?fuel (compile store ?profile opts ~input:w.Workload.ref_ w level))
