(* The paper's experiment suite: one function per figure, plus the
   ablation table DESIGN.md commits to.  Each experiment runs the staged
   pipeline ({!Pipeline.profile_compile_run}: profile on train, compile,
   execute on ref in the machine simulator) and checks output equality
   between builds as it goes — a bench run doubles as an end-to-end
   correctness check. *)

module C = Srp_machine.Counters

type bench_result = {
  w : Workload.t;
  base : Pipeline.run_result;
  spec : Pipeline.run_result;
}

exception Output_mismatch of string

let promote_stats (r : Pipeline.run_result) : Srp_core.Ssapre.stats =
  match r.Pipeline.compiled.Pipeline.promote with
  | Some p -> p.Srp_core.Promote.stats
  | None -> Srp_core.Ssapre.empty_stats ()

(* The worker-domain pool the suite (and `srp serve`) fans out on: hand
   task indices out by an atomic ticket counter, land every result in its
   submission slot so output order never depends on domain scheduling.
   The calling domain works too; SRP_BENCH_JOBS overrides the pool size
   (mostly for exercising the multi-domain path on single-core
   machines). *)
let pool_map ~(ntasks : int) (f : int -> 'a) : ('a, exn) result array =
  let slots = Array.make ntasks None in
  let next = Atomic.make 0 in
  let worker () =
    let continue_ = ref true in
    while !continue_ do
      let i = Atomic.fetch_and_add next 1 in
      if i >= ntasks then continue_ := false
      else
        slots.(i) <-
          Some
            (try
               Ok
                 (Srp_obs.Span.with_span ~cat:"pool" "pool.task"
                    ~args:[ ("task", Srp_obs.Json.Int i) ]
                    (fun () -> f i))
             with e -> Error e)
    done
  in
  let jobs =
    match Sys.getenv_opt "SRP_BENCH_JOBS" with
    | Some s -> ( match int_of_string_opt s with Some j when j > 0 -> j | _ -> 1 )
    | None -> Domain.recommended_domain_count ()
  in
  let helpers = max 0 (min (ntasks - 1) (jobs - 1)) in
  let domains = List.init helpers (fun _ -> Domain.spawn worker) in
  worker ();
  List.iter Domain.join domains;
  Array.map (function Some r -> r | None -> assert false) slots

(* The two builds of every comparison must print the same output. *)
let check_outputs ~what (w : Workload.t) (a : Pipeline.run_result)
    (b : Pipeline.run_result) =
  if a.Pipeline.output <> b.Pipeline.output then
    raise
      (Output_mismatch (Fmt.str "%s: %s outputs differ!" w.Workload.name what))

let pair w base spec =
  check_outputs ~what:"baseline and speculative" w base spec;
  { w; base; spec }

(* Run one workload at baseline and ALAT levels and check equivalence.
   [ablations] apply to the speculative build only — the baseline stays
   the fixed reference the figures are normalized against.  [cache]
   shares stage artifacts between the two builds (one lower, one input
   application per input set). *)
let run_pair ?fuel ?cache ?ablations ?sched ?prob (w : Workload.t) :
    bench_result =
  let base =
    Pipeline.profile_compile_run ?fuel ?cache ?sched ?prob w Pipeline.Baseline
  in
  let spec =
    Pipeline.profile_compile_run ?fuel ?cache ?ablations ?sched ?prob w
      Pipeline.Alat
  in
  pair w base spec

(* Run the whole suite from a pool of worker domains (pool_map).  The
   work unit is one (workload, level) build-and-run — two tasks per
   workload — so the figure tables and the --json rows come out in
   registry order no matter how the domains are scheduled.  The pipeline
   has no cross-run mutable state apart from the Stats registry and the
   optional stage cache, both domain-safe; with [cache] the two builds of
   a workload share its lower and apply-input artifacts, so the sweep
   lowers each source once instead of thrice (train + 2 levels).  The
   baseline-vs-speculative output check happens after the join, exactly
   as in the sequential run_pair. *)
let run_all ?fuel ?cache ?sched ?prob (workloads : Workload.t list) :
    bench_result list =
  let ws = Array.of_list workloads in
  let n = Array.length ws in
  let ntasks = 2 * n in
  let run_task i =
    let w = ws.(i / 2) in
    let level = if i mod 2 = 0 then Pipeline.Baseline else Pipeline.Alat in
    Pipeline.profile_compile_run ?fuel ?cache ?sched ?prob w level
  in
  let slots = pool_map ~ntasks run_task in
  let result i =
    match slots.(i) with Ok r -> r | Error e -> raise e
  in
  List.init n (fun k -> pair ws.(k) (result (2 * k)) (result ((2 * k) + 1)))

(* --- the four figures --- *)

let figure8 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure8_row ~name:r.w.Workload.name
          ~base:r.base.Pipeline.counters ~spec:r.spec.Pipeline.counters)
      rs
  in
  Report.render_figure8 rows

let figure9 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure9_row ~name:r.w.Workload.name
          ~base:(promote_stats r.base) ~spec:(promote_stats r.spec))
      rs
  in
  Report.render_figure9 rows

let figure10 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure10_row ~name:r.w.Workload.name ~spec:r.spec.Pipeline.counters)
      rs
  in
  Report.render_figure10 rows

let figure11 (rs : bench_result list) : string =
  let rows =
    List.map
      (fun r ->
        Report.figure11_row ~name:r.w.Workload.name
          ~base:r.base.Pipeline.counters ~spec:r.spec.Pipeline.counters)
      rs
  in
  Report.render_figure11 rows

(* --- ablations --- *)

(* One side of an ablation: a level plus the overrides
   {!Pipeline.profile_compile_run} takes.  Every ablation is a pair of
   these values on the one staged pipeline — no experiment builds code
   any other way. *)
type build = {
  level : Pipeline.level;
  ablations : Pipeline.ablation list;
  sched : bool;
  prob : bool;
}

let alat = { level = Pipeline.Alat; ablations = []; sched = true; prob = true }
let at level = { alat with level }

(* One row of the ablation table: build [a] against build [b], reported
   as cycles under the two labels and b's gain over a. *)
type comparison = {
  title : string;
  label_a : string;
  a : build;
  label_b : string;
  b : build;
}

let ablation_table =
  [ { title = "Ablation A: invala.e strategy (Figure 2) on/off";
      label_a = "no-invala"; a = { alat with ablations = [ Pipeline.No_invala ] };
      label_b = "invala"; b = alat };
    { title = "Ablation B: software run-time disambiguation vs ALAT";
      label_a = "software"; a = at Pipeline.Baseline;
      label_b = "alat"; b = alat };
    { title = "Ablation C: conservative PRE vs software checks";
      label_a = "conservative"; a = at Pipeline.Conservative;
      label_b = "software"; b = at Pipeline.Baseline };
    { title = "Ablation D: heuristic speculation vs alias profile";
      label_a = "heuristic"; a = at Pipeline.Alat_heuristic;
      label_b = "profile"; b = alat };
    { title = "Ablation E: control speculation (ld.sa) on/off";
      label_a = "no-ld.sa";
      a = { alat with ablations = [ Pipeline.No_control_spec ] };
      label_b = "ld.sa"; b = alat };
    { title = "Ablation F: cascade promotion (section 2.4) on/off";
      label_a = "no-cascade"; a = alat;
      label_b = "cascade"; b = { alat with ablations = [ Pipeline.Cascade ] } };
    { title = "Ablation G: pre-bundle list scheduling on/off";
      label_a = "no-sched"; a = { alat with sched = false };
      label_b = "sched"; b = alat };
    { title = "Ablation H: probabilistic expected-value speculation gate on/off";
      label_a = "no-prob"; a = { alat with prob = false };
      label_b = "prob"; b = alat } ]

(* Run one comparison over [workloads] and render its table.  [cache]
   lets every row share stage artifacts: the lowered sources, the train
   profiles and the builds that recur across rows. *)
let run_comparison ?fuel ?cache (c : comparison) (workloads : Workload.t list)
    : string =
  let run w (b : build) =
    Pipeline.profile_compile_run ?fuel ?cache ~ablations:b.ablations
      ~sched:b.sched ~prob:b.prob w b.level
  in
  let row w =
    let ra = run w c.a and rb = run w c.b in
    check_outputs ~what:"ablation" w ra rb;
    let ca = ra.Pipeline.counters.C.cycles
    and cb = rb.Pipeline.counters.C.cycles in
    let red = 100.0 *. float_of_int (ca - cb) /. float_of_int (max 1 ca) in
    [ w.Workload.name; string_of_int ca; string_of_int cb; Fmt.str "%.2f" red ]
  in
  Srp_support.Pp_util.render_table
    ~header:
      [ "benchmark"; c.label_a ^ " cycles"; c.label_b ^ " cycles"; "gain %" ]
    ~rows:(List.map row workloads)
