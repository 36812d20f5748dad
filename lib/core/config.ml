(* Configuration of the register-promotion pass.  The experiment matrix of
   the paper maps onto these knobs:

   - baseline ORC -O3: [conservative] + [software_check] (the run-time
     disambiguation of [Nicolau 89] is enabled at O3; paper section 5);
   - the paper's contribution: [alat ~policy:(Profile p)];
   - ablations: heuristic speculation, no control speculation, invala.e
     strategy on/off. *)

type check_style =
  | No_speculation (* conservative PRE only *)
  | Software (* address-compare + conditional update after aliased stores *)
  | Alat (* advanced loads + ALAT checks *)

type speculation_policy =
  | Spec_never
  | Spec_heuristic (* singleton points-to sets only *)
  | Spec_profile of Srp_profile.Alias_profile.t

type t = {
  check_style : check_style;
  policy : speculation_policy;
  control_spec : bool; (* allow ld.sa hoisting into loop preheaders *)
  use_invala : bool; (* invala.e on cold paths instead of load insertion *)
  max_rounds : int; (* 1 = direct refs only; 3 covers *p and **q chains *)
  (* promote across checks of the address temp itself (paper section 2.4):
     the data check becomes chk.a with a recovery routine reloading both
     the pointer and the data.  Off by default, matching the paper's
     implementation note in section 4. *)
  cascade : bool;
  (* pressure-aware candidate selection: promote only while the projected
     register demand stays under the RSE pool, or when a candidate's saved
     load latency still beats its marginal spill cost above it. *)
  pressure : bool;
  pressure_threshold : int; (* RSE physical pool: stacks beyond this spill *)
  (* expected-value speculation gating over the probabilistic profile: a
     kill with a nonzero observed conflict rate may be speculated past,
     and each check the candidate would plant is debited from its benefit
     before the pressure gate sees it — an issue-slot tax per expected
     execution plus P(conflict) x the real recovery price (one reload for
     ld.c, recovery_penalty + reload for a cascade chk.a).  Admission is
     left entirely to that ledger: the candidate is also priced at the
     binary scope (only P = 0 kills speculate) and the cheaper shape is
     committed, so a crossing that does not pay for itself falls back to
     a hard kill.  [prob = false] reproduces the binary-verdict pipeline
     bit for bit (the --no-prob ablation): only P = 0 kills speculate and
     no check cost is charged. *)
  prob : bool;
  recovery_penalty : int;
      (* cycles one failed check costs beyond the reload itself: the
         machine's branch-to-recovery flush (Machine.check_recovery_penalty,
         mispredict flush + redirect = 16 on the modeled pipeline) *)
  lat_l1 : int; (* saved cycles per eliminated integer (L1) load *)
  lat_fp : int; (* saved cycles per eliminated floating-point load *)
  spill_cost : int;
      (* integer class: RSE spill+fill cycles one claimed register costs
         per overflowing call (the machine's rate: one cycle out, one
         back).  Float class: memory spill round-trip per occurrence. *)
}

let conservative =
  { check_style = No_speculation; policy = Spec_never; control_spec = false;
    use_invala = false; max_rounds = 3; cascade = false;
    pressure = true; pressure_threshold = 24; lat_l1 = 2; lat_fp = 9;
    spill_cost = 2; prob = true; recovery_penalty = 16 }

(* The ORC -O3 baseline: conservative PRE plus software run-time
   disambiguation on scalars. *)
let baseline = { conservative with check_style = Software }

let alat ~profile =
  { conservative with
    check_style = Alat; policy = Spec_profile profile; control_spec = true;
    use_invala = true }

(* the section 2.4 extension enabled: *p promoted even when p itself is
   speculative, repaired by chk.a recovery routines *)
let alat_cascade ~profile = { (alat ~profile) with cascade = true }

let alat_heuristic =
  { conservative with check_style = Alat; policy = Spec_heuristic }

let pp_style ppf = function
  | No_speculation -> Fmt.string ppf "none"
  | Software -> Fmt.string ppf "software"
  | Alat -> Fmt.string ppf "alat"

(* Knobs of the post-regalloc, pre-bundle list scheduler
   (lib/target/sched.ml).  [lat_l1]/[lat_fp] are the machine's L1-hit
   load latencies — the same figures the promotion cost model above
   prices eliminated loads with — used as dependence-edge weights.
   [hoist_bonus] is added to the critical-path priority of ld.a/ld.sa
   so advanced loads issue as early as their block allows: the
   speculative hoist-distance tuning.  The scheduler on/off bit is
   fingerprinted into the bundle stage key and serve job key; these
   weights are compile-time constants shared by every level, so they
   ride the key version instead of being fingerprinted per job. *)
module Sched = struct
  type t = { lat_l1 : int; lat_fp : int; hoist_bonus : int }

  let default = { lat_l1 = 2; lat_fp = 9; hoist_bonus = 4 }
end
