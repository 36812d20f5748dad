(* The modeled Itanium's price list: every scalar latency, penalty and
   resource count of the simulated machine, in one place.  The simulator
   charges these (Machine, Cache, Rse, Timeline) and the compiler plans
   with the same figures (the promoter's cost model in Ssapre/Promote, the
   pressure estimator in Pipeline, the list scheduler in Sched), so a
   change here moves both sides together.  Per-opcode result latencies
   and issue classes live next to the instruction set
   (Srp_target.Insn.latency / takes_mem / takes_fp); template port counts
   next to the bundle templates (Srp_target.Bundle.template_ports).

   The figures are a 733 MHz Itanium in spirit; the two the paper quotes
   (section 4) are the 2-cycle integer L1 hit and the 9-cycle FP load. *)

(* --- data cache --- *)

let lat_l1 = 2 (* integer L1D hit *)
let lat_fp = 9 (* floating-point load: bypasses L1, served from L2 *)
let lat_l2 = 13 (* integer L1 miss, L2 hit *)
let lat_mem = 150 (* L2 miss *)

(* --- control --- *)

(* static misprediction (backward-taken/forward-not-taken): a front-end
   flush *)
let mispredict_penalty = 6

(* a failed chk.a: the mispredict flush plus the light trap that vectors
   into the recovery code, beyond the reload the recovery itself does *)
let check_recovery_penalty = mispredict_penalty + 10

(* the runtime allocator behind an [alloc] instruction *)
let alloc_cycles = 20

(* --- register stack engine --- *)

(* Physical stacked registers backing the frames of the whole call stack.
   24 is a scaled-down stand-in for Itanium's 96, matching our
   scaled-down kernels: at 96 no kernel's call stack ever overflows the
   file, which would make the RSE columns of the experiment tables
   identically zero. *)
let rse_pool = 24

(* The RSE moves one register per cycle each way, so a frame register
   that overflows the pool costs a spill at the call and a fill at the
   return. *)
let rse_reg_cycles = 1
let rse_spill_fill = 2 * rse_reg_cycles

(* --- issue resources --- *)

let issue_width = 6 (* instructions per issue group *)
let bundles_per_cycle = 2 (* bundles dispersed per issue group *)

(* Functional units per issue group.  Memory and FP instructions each take
   one M / F unit; bundle templates reserve M, F and B units by slot. *)
let m_units = 2
let f_units = 2
let b_units = 3
