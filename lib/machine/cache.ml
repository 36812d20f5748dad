(* Two-level data cache with an Itanium-like latency profile (the prices
   are Srp_ir.Timing's):
   - integer L1D hit: [lat_l1] = 2 cycles (the number the paper quotes in
     section 4);
   - floating-point loads bypass L1 and are served from L2 at [lat_fp] = 9
     cycles (also straight from section 4: "the latency of a floating
     point load on Itanium is 9 cycles");
   - L2 hit: [lat_l2] = 13 cycles for integer L1 misses;
   - memory: [lat_mem] = 150 cycles.
   Write-allocate, LRU within set.  Stores update both levels; store
   latency itself is hidden (store buffers), only the line-fill state
   matters. *)

type level = {
  set_mask : int; (* sets - 1: the set count is a power of two *)
  ways : int;
  line_shift : int;
  tags : int array; (* sets * ways; -1 = invalid *)
  lru : int array; (* smaller = older *)
  mutable tick : int;
  (* the block the last access touched and its slot: a repeat access to
     the same line (the common case) is a hit found without a search *)
  mutable last_block : int;
  mutable last_slot : int;
}

let mk_level ~size_bytes ~ways ~line =
  let line_shift =
    int_of_float (Float.round (Float.log2 (float_of_int line)))
  in
  let n_sets = size_bytes / (line * ways) in
  assert (n_sets land (n_sets - 1) = 0);
  { set_mask = n_sets - 1; ways; line_shift;
    tags = Array.make (n_sets * ways) (-1);
    lru = Array.make (n_sets * ways) 0; tick = 0; last_block = -1; last_slot = 0 }

(* Access a level; true = hit.  Always allocates on miss, into the least
   recently used way (the lowest-numbered one among ties). *)
let access_level l (addr : int) : bool =
  let block = addr lsr l.line_shift in
  l.tick <- l.tick + 1;
  if block = l.last_block then begin
    l.lru.(l.last_slot) <- l.tick;
    true
  end
  else begin
    let base = (block land l.set_mask) * l.ways in
    let stop = base + l.ways in
    let i = ref base in
    while !i < stop && l.tags.(!i) <> block do incr i done;
    let hit = !i < stop in
    let slot =
      if hit then !i
      else begin
        let victim = ref base in
        for i = base + 1 to stop - 1 do
          if l.lru.(i) < l.lru.(!victim) then victim := i
        done;
        l.tags.(!victim) <- block;
        !victim
      end
    in
    l.lru.(slot) <- l.tick;
    l.last_block <- block;
    l.last_slot <- slot;
    hit
  end

type t = { l1 : level; l2 : level }

let create () =
  { l1 = mk_level ~size_bytes:16_384 ~ways:4 ~line:64;
    l2 = mk_level ~size_bytes:262_144 ~ways:8 ~line:64 }

module Timing = Srp_ir.Timing

(* Latency of a load; updates both levels and the counters. *)
let load_latency t (c : Counters.t) ~(fp : bool) (addr : int) : int =
  let l1_hit = access_level t.l1 addr in
  if l1_hit && not fp then begin
    c.Counters.l1_hits <- c.Counters.l1_hits + 1;
    Timing.lat_l1
  end
  else begin
    if not l1_hit then c.Counters.l1_misses <- c.Counters.l1_misses + 1
    else c.Counters.l1_hits <- c.Counters.l1_hits + 1;
    let l2_hit = access_level t.l2 addr in
    if l2_hit then if fp then Timing.lat_fp else Timing.lat_l2
    else begin
      c.Counters.l2_misses <- c.Counters.l2_misses + 1;
      Timing.lat_mem
    end
  end

(* Stores refresh the line state; their latency is hidden. *)
let store_touch t (addr : int) : unit =
  ignore (access_level t.l1 addr);
  ignore (access_level t.l2 addr)
