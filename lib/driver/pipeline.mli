(** Compilation pipelines — the experiment matrix of the paper.

    A compile is a chain of named stages (lower, apply-input, profile,
    promote, select, regalloc, layout, bundle), each producing an
    immutable artifact under a content-addressed key ({!Stage.Key}).
    Passing [?cache] (a {!Stage.store}) shares artifacts across builds —
    a bench sweep lowers each source once; [srp serve] shares the train
    profile across a whole batch.  The seed's monolithic path survives as
    the [*_monolithic] reference implementations: the staged path is held
    bit-identical to them (output, exit code, every machine counter) by
    the differential tests. *)

open Srp_ir

(** The optimization levels the experiments compare. *)
type level =
  | O0  (** straight lowering, no promotion *)
  | Conservative  (** PRE register promotion, no speculation *)
  | Baseline
      (** the ORC -O3 stand-in: conservative PRE + software run-time
          disambiguation on scalars (paper section 4) *)
  | Alat
      (** the paper's system: ALAT speculation driven by an alias profile
          collected on the train input *)
  | Alat_heuristic  (** ALAT speculation from static heuristics only *)

val level_name : level -> string
val all_levels : level list
val level_of_string : string -> level option

(** Collect an alias profile by interpreting the workload on its train
    input.  With [?cache], the lowered program and the profile itself are
    shared artifacts (a later [compile] of the same workload reuses the
    lower stage; a later [train_profile] is a cache hit). *)
val train_profile : ?cache:Stage.store -> Workload.t -> Srp_profile.Alias_profile.t

val config_of_level :
  level -> Srp_profile.Alias_profile.t option -> Srp_core.Config.t option

(** Named promotion-config overrides applied on top of a level, so single
    workloads can be measured per bench-sweep configuration (ROADMAP
    "ablation wiring").  Ablations B-D of the sweep are level choices and
    already reachable via [-l]. *)
type ablation =
  | No_invala  (** disable the invala.e cold-path strategy (ablation A) *)
  | No_control_spec  (** disable ld.sa hoisting (ablation E) *)
  | Cascade  (** enable section-2.4 cascade promotion (ablation F) *)
  | Single_round  (** max_rounds = 1: direct references only *)

val all_ablations : ablation list
val ablation_name : ablation -> string
val ablation_of_string : string -> ablation option
val apply_ablation : ablation -> Srp_core.Config.t -> Srp_core.Config.t

type compiled = {
  level : level;
  ablations : ablation list;
  split : bool;
      (** hole-aware regalloc with live-range splitting (off = the
          closed-interval allocator, the [--no-split] ablation) *)
  ir : Program.t;  (** the (possibly promoted) IR *)
  target : Srp_target.Insn.program;
  promote : Srp_core.Promote.result option;
}

(** The per-function register-pressure estimator the promote stage feeds
    to {!Srp_core.Promote.run}: instruction selection plus the
    allocator's analysis prefix ({!Srp_target.Regalloc.estimate}) over
    the named function's current body, memoized by name.  Exposed so the
    differential tests can drive {!Srp_core.Promote.run} exactly as the
    pipeline does. *)
val pressure_fn : Program.t -> string -> Srp_core.Promote.pressure option

(** Compile a workload at a level; [input] (usually the ref input) is baked
    into the global initializers before promotion and code generation.
    [ablations] override the level's promotion config (no effect at O0).
    [layout] (default on) runs the post-regalloc block layout pass — turn
    it off to A/B the branch-layout contribution in isolation.  [sched]
    (default on) runs the pre-bundle latency-aware list scheduler
    ({!Srp_target.Sched}) over the laid-out code; off is the [--no-sched]
    ablation, bit-identical on every non-cycle counter.  [bundle]
    (default on) packs the laid-out code into IA-64 3-slot bundles so the
    machine fetches bundle-wise; off = flat instruction stream.  [split]
    (default on) selects the hole-aware live-range allocator; off falls
    back to one closed interval per vreg.  [pressure] (default on) keeps
    the pressure-aware candidate gate in the promoter; off is the
    [--no-pressure] ablation, reproducing promote-everything exactly (it
    flows through the config, so the promote content key records it).
    [prob] (default on) keeps the probabilistic expected-value
    speculation gate; off is the [--no-prob] ablation, the exact
    binary-verdict legacy path (also recorded in the promote content
    key).  [cache] shares stage artifacts with other builds; without it
    the stages still run (one lower, clones before mutation) but retain
    nothing. *)
val compile :
  ?cache:Stage.store ->
  ?profile:Srp_profile.Alias_profile.t ->
  ?ablations:ablation list ->
  ?layout:bool ->
  ?sched:bool ->
  ?bundle:bool ->
  ?split:bool ->
  ?pressure:bool ->
  ?prob:bool ->
  input:Workload.input ->
  Workload.t ->
  level ->
  compiled

type run_result = {
  compiled : compiled;
  exit_code : int64;
  output : string;
  counters : Srp_machine.Counters.t;
  site_stats : Srp_obs.Site_hist.t;
      (** per-site event attribution (pfmon stand-in) *)
}

val run :
  ?fuel:int -> ?trace:Srp_obs.Trace.sink ->
  ?timeline:Srp_machine.Timeline.t -> compiled -> run_result

(** The standard experiment protocol: profile on train (for [Alat]),
    compile at [level], execute on ref.  Without an explicit [cache] an
    ephemeral store still shares the lower artifact between the train
    profile and the ref build, so parse/lower runs once per source. *)
val profile_compile_run :
  ?fuel:int ->
  ?trace:Srp_obs.Trace.sink ->
  ?timeline:Srp_machine.Timeline.t ->
  ?cache:Stage.store ->
  ?ablations:ablation list ->
  ?layout:bool ->
  ?sched:bool ->
  ?bundle:bool ->
  ?split:bool ->
  ?pressure:bool ->
  ?prob:bool ->
  Workload.t ->
  level ->
  run_result

(** {1 The seed monolithic path}

    The original single-function pipeline, kept verbatim as the reference
    the staged path is differentially tested against. *)

val train_profile_monolithic : Workload.t -> Srp_profile.Alias_profile.t

val compile_monolithic :
  ?profile:Srp_profile.Alias_profile.t ->
  ?ablations:ablation list ->
  ?layout:bool ->
  ?sched:bool ->
  ?bundle:bool ->
  ?split:bool ->
  ?pressure:bool ->
  ?prob:bool ->
  input:Workload.input ->
  Workload.t ->
  level ->
  compiled

val profile_compile_run_monolithic :
  ?fuel:int ->
  ?trace:Srp_obs.Trace.sink ->
  ?timeline:Srp_machine.Timeline.t ->
  ?ablations:ablation list ->
  ?layout:bool ->
  ?sched:bool ->
  ?bundle:bool ->
  ?split:bool ->
  ?pressure:bool ->
  ?prob:bool ->
  Workload.t ->
  level ->
  run_result
