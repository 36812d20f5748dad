(** Configuration of the register-promotion pass — the experiment matrix of
    the paper maps onto these knobs. *)

(** How possibly-aliased promotions are protected at run time. *)
type check_style =
  | No_speculation
      (** conservative PRE only: a may-aliased store kills availability *)
  | Software
      (** address-compare + conditional update after aliased stores — the
          run-time disambiguation of Nicolau (1989), part of the ORC -O3
          baseline per section 5 of the paper; scalars only *)
  | Alat
      (** advanced loads + ALAT check statements — the paper's scheme *)

(** What evidence licenses ignoring a chi (paper section 3.1). *)
type speculation_policy =
  | Spec_never  (** nothing is speculative *)
  | Spec_heuristic  (** only singleton points-to sets *)
  | Spec_profile of Srp_profile.Alias_profile.t
      (** alias-profiling feedback: a chi is speculative when the profiled
          run never observed the store touching the location *)

type t = {
  check_style : check_style;
  policy : speculation_policy;
  control_spec : bool;
      (** allow ld.sa hoisting of loads into loop preheaders when the
          profile shows the loop body executing (section 2.3, Figure 3) *)
  use_invala : bool;
      (** plant invala.e on training-dead paths instead of inserting loads,
          turning downstream reads into lazy ld.c checks (Figure 2) *)
  max_rounds : int;
      (** bottom-up promotion rounds: 1 covers direct references only,
          3 covers [*p] and [**q] chains (section 3.2) *)
  cascade : bool;
      (** promote across checks of the address temp itself: the pointer's
          check becomes chk.a with a recovery routine reloading pointer and
          data (section 2.4, Figure 4).  Off by default, matching the
          paper's implementation note in section 4. *)
  pressure : bool;
      (** rank candidates by saved latency and stop promoting once the
          projected register demand exceeds [pressure_threshold], unless
          the candidate still pays for its marginal spill.  [false]
          reproduces promote-everything exactly (the --no-pressure
          ablation). *)
  pressure_threshold : int;
      (** the RSE physical pool (24 stacked registers): co-resident
          frames growing past it turn promotions into spill/fill cycles *)
  prob : bool;
      (** expected-value speculation gating over the probabilistic
          profile: kills may speculate whatever their observed conflict
          rate, every check a candidate would plant is debited from its
          benefit (issue-slot tax plus P(conflict) x recovery price), and
          each candidate commits the cheaper of that scope and the binary
          scope (only never-conflicting kills speculate).  [false]
          reproduces the binary-verdict pipeline bit for bit (the
          --no-prob ablation). *)
  recovery_penalty : int;
      (** cycles one failed check costs beyond the reload itself — the
          machine's branch-to-recovery flush, 16 on the modeled
          pipeline *)
  lat_l1 : int;  (** saved cycles per eliminated integer (L1-hit) load *)
  lat_fp : int;  (** saved cycles per eliminated floating-point load *)
  spill_cost : int;
      (** over the threshold, the cycles one claimed register costs: per
          overflowing call for the RSE-stacked integer class, per
          occurrence (memory spill round-trip) for floats *)
}

(** PRE register promotion with no speculation of any kind. *)
val conservative : t

(** The ORC -O3 stand-in: conservative PRE plus software run-time
    disambiguation on scalars. *)
val baseline : t

(** The paper's system: ALAT speculation driven by an alias profile. *)
val alat : profile:Srp_profile.Alias_profile.t -> t

(** [alat] with the section 2.4 cascade extension enabled. *)
val alat_cascade : profile:Srp_profile.Alias_profile.t -> t

(** ALAT speculation from static heuristics only (no profile). *)
val alat_heuristic : t

val pp_style : Format.formatter -> check_style -> unit

(** Knobs of the post-regalloc, pre-bundle list scheduler
    (lib/target/sched.ml): dependence-edge latencies — the same L1-hit
    figures the promotion cost model prices eliminated loads with — and
    the critical-path priority bonus that hoists ld.a/ld.sa.  Constant
    across levels; the scheduler's on/off bit is what the stage and
    serve keys fingerprint. *)
module Sched : sig
  type t = {
    lat_l1 : int;  (** integer L1-hit load latency, cycles *)
    lat_fp : int;  (** floating-point L1-hit load latency, cycles *)
    hoist_bonus : int;
        (** added to the critical-path height of ld.a/ld.sa so advanced
            loads issue as early as their block allows *)
  }

  val default : t
end
