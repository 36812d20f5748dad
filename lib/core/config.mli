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
          projected register demand exceeds the RSE physical pool
          ([Srp_ir.Timing.rse_pool]: co-resident frames growing past it
          turn promotions into spill/fill cycles), unless the candidate
          still pays for its marginal spill.  [false] reproduces
          promote-everything exactly (the --no-pressure ablation). *)
  prob : bool;
      (** expected-value speculation gating over the probabilistic
          profile: kills may speculate whatever their observed conflict
          rate, every check a candidate would plant is debited from its
          benefit (issue-slot tax plus P(conflict) x recovery price, at
          the machine's own prices from [Srp_ir.Timing]), and
          each candidate commits the cheaper of that scope and the binary
          scope (only never-conflicting kills speculate).  [false]
          reproduces the binary-verdict pipeline bit for bit (the
          --no-prob ablation). *)
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
