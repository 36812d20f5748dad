(* Interpreter/simulator memory: a paged store of 64-bit words plus a region
   map that resolves any address back to the abstract [Location.t] it falls
   in.  The region map is what makes alias *profiling* possible: every
   dynamic indirect access reports which symbol or heap object it actually
   touched (paper section 3.1).

   Layout.  A page covers [page_words] consecutive words and holds their
   raw bits (an int64 each, a float stored as its bit pattern), a kind
   byte per word (so [load] still tells a stored float from an int) and a
   region id per word (0 = no region: a red zone, freed or never
   allocated).  Pages are materialized on first touch, so a 1 GB region
   costs nothing until a word of it is used, and the accessors go through
   a one-page cache before the page table.

   The region map ([regions], ordered by base) stays the authority: a word
   belongs to the region with the greatest base at or below it, if that
   region covers it.  Page region ids are painted from the map when a page
   is materialized and repainted over the affected span on every
   alloc / alloc_at / free, so a load or store never consults the map. *)

open Srp_ir
module IMap = Map.Make (Int64)

type region = { base : int64; size : int; loc : Srp_alias.Location.t; id : int }

let page_bits = 9
let page_words = 1 lsl page_bits
let page_mask = page_words - 1

type page = {
  data : Bytes.t; (* page_words little-endian int64 words *)
  kind : Bytes.t; (* per word: '\000' int, '\001' float *)
  rid : int array; (* per word: region id, 0 = none *)
  mutable live : int; (* words with a nonzero region id *)
}

type t = {
  pages : (int, page) Hashtbl.t; (* page number -> page *)
  mutable regions : region IMap.t; (* base -> region *)
  mutable by_id : region array; (* region id -> region; slot 0 unused *)
  mutable free_ids : int list;
  mutable next_id : int;
  mutable brk : int64; (* next free address *)
  mutable last_pn : int; (* one-page cache *)
  mutable last_page : page;
  mutable spare : page option; (* a blank page kept for reuse *)
  mutable sweep_at : int; (* table size that triggers the next sweep *)
}

let new_page () =
  { data = Bytes.make (page_words * 8) '\000';
    kind = Bytes.make page_words '\000';
    rid = Array.make page_words 0; live = 0 }

(* Stands in for every page that no region touches: all ids 0, so every
   access to it faults before anything is written. *)
let empty_page = new_page ()

let no_page = min_int

let dummy_region =
  { base = 0L; size = 0; loc = Srp_alias.Location.Heap (-1); id = 0 }

let create () =
  { pages = Hashtbl.create 64; regions = IMap.empty;
    by_id = Array.make 16 dummy_region; free_ids = []; next_id = 1;
    brk = 0x1000L; last_pn = no_page; last_page = empty_page; spare = None;
    sweep_at = 16 }

let brk t = t.brk

let word_of (addr : int64) = Int64.to_int (Int64.shift_right addr 3)
let addr_of_word w = Int64.shift_left (Int64.of_int w) 3
let end_word r = word_of r.base + (r.size / 8)

(* --- painting region ids from the map --- *)

let set_rid p i id =
  let old = p.rid.(i) in
  if old <> id then begin
    if old = 0 then p.live <- p.live + 1
    else if id = 0 then p.live <- p.live - 1;
    p.rid.(i) <- id
  end

(* Repaint the words [wlo, whi) of page [p] (which starts at word [w0]). *)
let paint t p ~w0 wlo whi =
  let owner = IMap.find_last_opt (fun b -> Int64.compare b (addr_of_word wlo) <= 0) t.regions in
  let rec go w owner seq =
    if w < whi then begin
      let next, rest =
        match seq () with
        | Seq.Cons ((b, r), rest) when word_of b < whi -> (word_of b, Some (r, rest))
        | _ -> (whi, None)
      in
      let id, stop =
        match owner with Some r -> (r.id, end_word r) | None -> (0, w)
      in
      for x = w to next - 1 do
        set_rid p (x - w0) (if x < stop then id else 0)
      done;
      match rest with
      | Some (r, rest) -> go next (Some r) rest
      | None -> ()
    end
  in
  go wlo (Option.map snd owner)
    (IMap.to_seq_from (Int64.add (addr_of_word wlo) 1L) t.regions)

let blank p =
  p.live = 0
  && (let rec zero i = i >= page_words * 8 || (Bytes.get_int64_le p.data i = 0L && zero (i + 8)) in
      zero 0)
  && Bytes.for_all (fun c -> c = '\000') p.kind

(* Apply [f page ~w0 lo hi] to every materialized page overlapping the
   words [wlo, whi), visiting whichever is smaller: the span's pages or
   the page table. *)
let each_page t wlo whi f =
  if wlo < whi then begin
    let plo = wlo asr page_bits and phi = (whi - 1) asr page_bits in
    let visit pn p = f p ~w0:(pn lsl page_bits) in
    if phi - plo < Hashtbl.length t.pages then
      for pn = plo to phi do
        match Hashtbl.find_opt t.pages pn with Some p -> visit pn p | None -> ()
      done
    else
      Hashtbl.fold (fun pn p acc -> if pn >= plo && pn <= phi then (pn, p) :: acc else acc)
        t.pages []
      |> List.iter (fun (pn, p) -> visit pn p)
  end;
  (* the cached page may be the stand-in for a page a region now touches *)
  if t.last_page == empty_page then t.last_pn <- no_page

let repaint t wlo whi =
  each_page t wlo whi (fun p ~w0 -> paint t p ~w0 (max wlo w0) (min whi (w0 + page_words)))

(* Drop the blank pages — vacated by frees, like the interpreter's frames
   below its heap break — once the table has doubled since the last
   sweep, so memory stays proportional to the pages in use at an
   amortized constant cost per page materialized. *)
let sweep t =
  Hashtbl.filter_map_inplace
    (fun _ p -> if blank p then (t.spare <- Some p; None) else Some p)
    t.pages;
  t.sweep_at <- (2 * Hashtbl.length t.pages) + 16

(* The page holding word [w], materialized if some region touches it. *)
let page_slow t pn =
  let p =
    match Hashtbl.find_opt t.pages pn with
    | Some p -> p
    | None ->
      let p = match t.spare with Some p -> t.spare <- None; p | None -> new_page () in
      let w0 = pn lsl page_bits in
      paint t p ~w0 w0 (w0 + page_words);
      if p.live = 0 then begin
        t.spare <- Some p;
        empty_page
      end
      else begin
        if Hashtbl.length t.pages >= t.sweep_at then sweep t;
        Hashtbl.replace t.pages pn p;
        p
      end
  in
  t.last_pn <- pn;
  t.last_page <- p;
  p

let[@inline] page t w =
  let pn = w asr page_bits in
  if pn = t.last_pn then t.last_page else page_slow t pn

let page_of_word = page

(* --- regions --- *)

let fresh_id t =
  match t.free_ids with
  | id :: rest -> t.free_ids <- rest; id
  | [] ->
    let id = t.next_id in
    t.next_id <- id + 1;
    if id >= Array.length t.by_id then begin
      let a = Array.make (2 * id) dummy_region in
      Array.blit t.by_id 0 a 0 (Array.length t.by_id);
      t.by_id <- a
    end;
    id

(* The last end word of the regions based at or just below [b] in the
   map: the span a change at [b] can uncover or cover. *)
let prev_end t b =
  let end_of = Option.fold ~none:min_int ~some:end_word in
  max
    (end_of (Option.map snd (IMap.find_last_opt (fun k -> Int64.compare k b < 0) t.regions)))
    (end_of (IMap.find_opt b t.regions))

let add_region t ~base ~size ~loc =
  let r = { base; size; loc; id = fresh_id t } in
  t.by_id.(r.id) <- r;
  let pe = prev_end t base in
  t.regions <- IMap.add base r t.regions;
  repaint t (word_of base) (max (end_word r) pe);
  base

(* Allocate a fresh region; returns its base address. *)
let alloc t ~size ~loc =
  let size = max size 8 in
  let size = (size + 7) / 8 * 8 in
  let base = t.brk in
  t.brk <- Int64.add t.brk (Int64.of_int (size + 8 (* red zone *)));
  add_region t ~base ~size ~loc

let region_of_addr t addr : region option =
  match IMap.find_last_opt (fun b -> Int64.compare b addr <= 0) t.regions with
  | Some (_, r)
    when Int64.compare addr (Int64.add r.base (Int64.of_int r.size)) < 0 ->
    Some r
  | Some _ | None -> None

(* Place a region at a caller-chosen base (stack frames: a real stack
   reuses the same addresses across calls, which matters to the ALAT's
   partial-address behaviour).  The base must be 8-aligned and the span
   free. *)
let alloc_at t ~base ~size ~loc =
  let size = max 8 ((size + 7) / 8 * 8) in
  if Int64.rem base 8L <> 0L then Value.err "alloc_at: unaligned base 0x%Lx" base;
  if region_of_addr t base <> None then Value.err "alloc_at: overlap at 0x%Lx" base;
  add_region t ~base ~size ~loc

(* Remove a region (function frame teardown).  Its cells are erased so a
   later frame reusing addresses starts zeroed. *)
let free t base =
  match IMap.find_opt base t.regions with
  | None -> Value.err "free of unknown region at 0x%Lx" base
  | Some r ->
    t.regions <- IMap.remove base t.regions;
    t.by_id.(r.id) <- dummy_region;
    t.free_ids <- r.id :: t.free_ids;
    let wlo = word_of base and whi = end_word r in
    each_page t wlo whi (fun p ~w0 ->
        let lo = max wlo w0 and hi = min whi (w0 + page_words) in
        Bytes.fill p.data ((lo - w0) * 8) ((hi - lo) * 8) '\000';
        Bytes.fill p.kind (lo - w0) (hi - lo) '\000');
    repaint t wlo (max whi (prev_end t base))

(* --- word access --- *)

let[@inline never] unaligned addr = Value.err "unaligned access at 0x%Lx" addr
let[@inline never] wild addr = Value.err "wild access at 0x%Lx" addr

let location_of_addr t addr =
  let w = word_of addr in
  let id = (page t w).rid.(w land page_mask) in
  if id = 0 then None else Some t.by_id.(id).loc

(* The page of a checked access and the word's index in it. *)
let[@inline] checked t addr =
  if Int64.logand addr 7L <> 0L then unaligned addr;
  let w = word_of addr in
  let p = page t w in
  let i = w land page_mask in
  if p.rid.(i) = 0 then wild addr;
  (p, i)

(* Raw bits of a word: an int as is, a float as its bit pattern — which is
   exactly the machine's view (a load into an FP register reinterprets
   the bits, one into an integer register takes them). *)
let load_bits t addr =
  let p, i = checked t addr in
  Bytes.get_int64_le p.data (i lsl 3)

let store_bits t addr ~float bits =
  let p, i = checked t addr in
  Bytes.set_int64_le p.data (i lsl 3) bits;
  Bytes.set p.kind i (if float then '\001' else '\000')

let load t addr : Value.t =
  let p, i = checked t addr in
  let bits = Bytes.get_int64_le p.data (i lsl 3) in
  if Bytes.get p.kind i = '\000' then Value.Vint bits
  else Value.Vflt (Int64.float_of_bits bits)

(* Typed load: an F64 access reinterprets a zero int cell as 0.0 so that
   zero-init behaves type-correctly. *)
let load_typed t addr (mty : Mem_ty.t) : Value.t =
  match load t addr, mty with
  | Value.Vint 0L, Mem_ty.F64 -> Value.Vflt 0.0
  | v, _ -> v

let store t addr (v : Value.t) =
  match v with
  | Value.Vint i -> store_bits t addr ~float:false i
  | Value.Vflt x -> store_bits t addr ~float:true (Int64.bits_of_float x)
