(* Register Stack Engine model (paper Figure 11).

   Each function allocates its integer register frame at the prologue; a
   fixed pool of physical stacked registers backs the frames of the whole
   call stack.  When an allocation overflows the physical file, the RSE
   spills the oldest frames' registers to the backing store at
   [Timing.rse_reg_cycles] per register; when a return re-exposes a
   spilled frame, the RSE fills it back at the same rate.  rse_cycles is
   the spill+fill traffic — the paper's observation is that promotion
   grows frames slightly, so rse_cycles can rise by tens of percent while
   remaining a vanishing fraction of total cycles.

   The default pool is [Timing.rse_pool] = 24, a scaled-down stand-in for
   Itanium's 96 stacked registers (see timing.ml).  Tests that model the
   real machine pass ~phys_total:96 explicitly.

   Spilling walks from the oldest frame up, so the frames holding spilled
   registers are always a prefix of the stack, fully spilled but for its
   innermost member; a return fills only the frame it re-exposes, which
   then sits on top of that prefix.  [oldest] marks the prefix's end, so
   a spill resumes where the last one stopped instead of rescanning the
   stack: amortized O(1) per call at any recursion depth. *)

module Timing = Srp_ir.Timing
module Vec = Srp_support.Vec

type frame = { nregs : int; mutable spilled : int (* regs currently in backing store *) }

type t = {
  frames : frame Vec.t; (* outermost first *)
  mutable phys_used : int; (* registers of unspilled (parts of) frames *)
  mutable backing : int; (* registers currently in the backing store *)
  mutable oldest : int; (* every frame below this index has none resident *)
  phys_total : int;
}

let create ?(phys_total = Timing.rse_pool) () =
  { frames = Vec.create ~dummy:{ nregs = 0; spilled = 0 }; phys_used = 0;
    backing = 0; oldest = 0; phys_total }

(* Occupancy views for the timeline sampler: dirty = stacked registers
   resident in the physical file (the RSE would have to spill them),
   clean = stacked registers currently saved to the backing store. *)
let dirty t = t.phys_used
let clean t = t.backing

(* Allocate a frame of [nregs]; returns cycles spent spilling. *)
let call t (c : Counters.t) ~nregs : int =
  Vec.push t.frames { nregs; spilled = 0 };
  t.phys_used <- t.phys_used + nregs;
  if c.Counters.max_stacked_regs < t.phys_used then
    c.Counters.max_stacked_regs <- t.phys_used;
  (* spill oldest frames until the new frame fits *)
  let spilled = ref 0 in
  while t.phys_used > t.phys_total do
    let f = Vec.get t.frames t.oldest in
    let n = min (f.nregs - f.spilled) (t.phys_used - t.phys_total) in
    f.spilled <- f.spilled + n;
    t.phys_used <- t.phys_used - n;
    spilled := !spilled + n;
    if f.spilled = f.nregs then t.oldest <- t.oldest + 1
  done;
  t.backing <- t.backing + !spilled;
  c.Counters.rse_spilled_regs <- c.Counters.rse_spilled_regs + !spilled;
  let cost = !spilled * Timing.rse_reg_cycles in
  c.Counters.rse_cycles <- c.Counters.rse_cycles + cost;
  cost

(* Return from the innermost frame; returns cycles spent filling the
   caller's spilled registers. *)
let ret t (c : Counters.t) : int =
  if Vec.is_empty t.frames then 0
  else begin
    let f = Vec.pop t.frames in
    t.phys_used <- t.phys_used - (f.nregs - f.spilled);
    t.backing <- t.backing - f.spilled;
    let depth = Vec.length t.frames in
    t.oldest <- min t.oldest depth;
    let filled =
      if depth = 0 then 0
      else begin
        let caller = Vec.top t.frames in
        let n = caller.spilled in
        if n > 0 then begin
          caller.spilled <- 0;
          t.phys_used <- t.phys_used + n;
          t.backing <- t.backing - n;
          t.oldest <- min t.oldest (depth - 1);
          c.Counters.rse_filled_regs <- c.Counters.rse_filled_regs + n
        end;
        n
      end
    in
    let cost = filled * Timing.rse_reg_cycles in
    c.Counters.rse_cycles <- c.Counters.rse_cycles + cost;
    cost
  end
