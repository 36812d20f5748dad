(* The Advanced Load Address Table (paper section 2.1), modelled on the
   Itanium 2 implementation: 32 entries, fully associative, matched on
   partial physical address bits and tagged by the target register of the
   advanced load.

   Associativity: the machine (and every experiment) uses the default,
   fully associative with round-robin replacement — the Itanium 2 ALAT is
   a 32-entry fully associative CAM.  [create ~ways] builds a
   set-associative table instead (the original Itanium used 2 ways); only
   the unit tests pass it, to observe set-conflict evictions — no bench
   or ablation does.

   Semantics:
   - ld.a/ld.sa allocate (or refresh) an entry for (frame, register);
   - every retired store probes the table and invalidates entries whose
     *partial* address matches — partial tags make a store occasionally
     invalidate an unrelated entry (a false collision: a spurious reload,
     never an incorrect result);
   - ld.c succeeds iff a valid entry for its register exists; on failure
     the data is reloaded (.nc re-allocates the entry, .clr does not);
   - invala.e removes the entry for one register.

   One idealization vs hardware: entries are tagged by (call-frame uid,
   register index) rather than physical register number, so register-stack
   wraparound can never cause a stale cross-frame hit.  DESIGN.md records
   this. *)

(* A tag packs (frame uid, register) into one int: the register index in
   the low [reg_bits] (int regs 2r, fp regs 2r+1), the frame above. *)
type tag = int

let reg_bits = 20
let no_tag = -1 (* the tag of an invalid entry *)

(* Entries as parallel arrays; an entry is valid iff its tag is not
   [no_tag].  [live] counts valid entries and [per_paddr] counts them per
   partial address, so a store whose partial address no entry carries —
   almost every store — returns at once. *)
type t = {
  tags : int array; (* n_sets * ways *)
  paddrs : int array;
  (* IR site id of the advanced load that armed the entry, for per-site
     event attribution *)
  sites : int array;
  n_sets : int;
  ways : int;
  mutable victim : int; (* round-robin replacement cursor *)
  paddr_bits : int;
  mutable live : int;
  per_paddr : Bytes.t; (* 2^paddr_bits counts, one byte each *)
}

let create ?(size = 32) ?ways ?(paddr_bits = 12) () =
  let ways = match ways with Some w -> w | None -> size in
  let n_sets = max 1 (size / ways) in
  let n = n_sets * ways in
  if n > 255 then invalid_arg "Alat.create: more than 255 entries";
  { tags = Array.make n no_tag; paddrs = Array.make n 0; sites = Array.make n (-1);
    n_sets; ways; victim = 0; paddr_bits; live = 0;
    per_paddr = Bytes.make (1 lsl paddr_bits) '\000' }

(* entries carrying partial address [pa] *)
let count t pa = Char.code (Bytes.get t.per_paddr pa)
let set_count t pa n = Bytes.set t.per_paddr pa (Char.unsafe_chr n)

let int_tag ~frame r = (frame lsl reg_bits) lor (2 * r)
let fp_tag ~frame r = (frame lsl reg_bits) lor ((2 * r) + 1)

let partial t (addr : int) : int = (addr lsr 3) land ((1 lsl t.paddr_bits) - 1)

let set_of t paddr = paddr mod t.n_sets

let invalidate t i =
  t.tags.(i) <- no_tag;
  t.live <- t.live - 1;
  let pa = t.paddrs.(i) in
  set_count t pa (count t pa - 1)

(* The slot holding [tag], or -1 (a register has at most one entry). *)
let find t tag =
  if t.live = 0 then -1
  else begin
    let tags = t.tags in
    let i = ref 0 and n = Array.length tags in
    while !i < n && tags.(!i) <> tag do incr i done;
    if !i < n then !i else -1
  end

(* Remove any entry for [tag]. *)
let remove t tag =
  let i = find t tag in
  if i >= 0 then invalidate t i

(* Allocate an entry for an advanced load.  Returns the arming site of the
   valid entry that had to be evicted for capacity, if any. *)
let insert t tag (addr : int) ~site : int option =
  remove t tag;
  let paddr = partial t addr in
  let base = set_of t paddr * t.ways in
  (* first free way, else the round-robin victim *)
  let free = ref (-1) and i = ref 0 in
  while !free < 0 && !i < t.ways do
    if t.tags.(base + !i) = no_tag then free := base + !i;
    incr i
  done;
  let slot, evicted =
    if !free >= 0 then (!free, None)
    else begin
      let s = base + (t.victim mod t.ways) in
      t.victim <- t.victim + 1;
      let victim_site = t.sites.(s) in
      invalidate t s;
      (s, Some victim_site)
    end
  in
  t.tags.(slot) <- tag;
  t.paddrs.(slot) <- paddr;
  t.sites.(slot) <- site;
  t.live <- t.live + 1;
  set_count t paddr (count t paddr + 1);
  evicted

(* Does a valid entry exist for [tag]?  [clear] removes it on a hit. *)
let check t tag ~clear : bool =
  let i = find t tag in
  if i >= 0 && clear then invalidate t i;
  i >= 0

(* A retired store: invalidate every entry whose partial address matches.
   Returns the arming sites of the entries invalidated, last slot first
   (per-site attribution charges the invalidation to the load that armed
   the victim, as pfmon's event sampling would). *)
let store_probe_sites t (addr : int) : int list =
  let paddr = partial t addr in
  if count t paddr = 0 then []
  else begin
    let victims = ref [] in
    for i = 0 to Array.length t.tags - 1 do
      if t.tags.(i) <> no_tag && t.paddrs.(i) = paddr then begin
        invalidate t i;
        victims := t.sites.(i) :: !victims
      end
    done;
    !victims
  end

let store_probe t (addr : int) : int = List.length (store_probe_sites t addr)

let invala_all t =
  for i = 0 to Array.length t.tags - 1 do
    if t.tags.(i) <> no_tag then invalidate t i
  done

(* Drop every entry belonging to a returning call frame.  On real hardware
   the dying frame's stacked registers are re-allocated and any ld.a to
   the recycled register number overwrites the stale entry; purging at
   return is the frame-uid-tagged equivalent (without it, dead entries
   would squat in the table and evict live ones). *)
let purge_frame t ~frame =
  if t.live > 0 then
    for i = 0 to Array.length t.tags - 1 do
      let g = t.tags.(i) in
      if g <> no_tag && g lsr reg_bits = frame then invalidate t i
    done

let occupancy t = t.live
