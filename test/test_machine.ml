(* Tests for the machine model: the ALAT, the caches, the RSE, and the
   executing pipeline (differentially against the interpreter). *)

module Alat = Srp_machine.Alat
module Cache = Srp_machine.Cache
module Rse = Srp_machine.Rse
module Counters = Srp_machine.Counters
module Timing = Srp_ir.Timing

(* --- ALAT unit tests --- *)

let test_alat_arm_check () =
  let a = Alat.create () in
  let tag = Alat.int_tag ~frame:1 5 in
  ignore (Alat.insert a tag 0x1000 ~site:(-1));
  Alcotest.(check bool) "armed entry hits" true (Alat.check a tag ~clear:false);
  Alcotest.(check bool) "nc keeps the entry" true (Alat.check a tag ~clear:false);
  Alcotest.(check bool) "clr removes it" true (Alat.check a tag ~clear:true);
  Alcotest.(check bool) "gone after clr" false (Alat.check a tag ~clear:false)

let test_alat_store_invalidation () =
  let a = Alat.create () in
  let tag = Alat.int_tag ~frame:1 5 in
  ignore (Alat.insert a tag 0x1000 ~site:(-1));
  Alcotest.(check int) "matching store invalidates" 1 (Alat.store_probe a 0x1000);
  Alcotest.(check bool) "check misses after store" false (Alat.check a tag ~clear:false)

let test_alat_partial_tag_false_collision () =
  let a = Alat.create ~paddr_bits:12 () in
  let tag = Alat.int_tag ~frame:1 5 in
  ignore (Alat.insert a tag 0x1000 ~site:(-1));
  (* an address 2^15 bytes away shares the 12-bit word tag *)
  let colliding = 0x1000 + (4096 * 8) in
  Alcotest.(check int) "false collision invalidates (safe direction)" 1
    (Alat.store_probe a colliding);
  (* a non-colliding address does not *)
  ignore (Alat.insert a tag 0x1000 ~site:(-1));
  Alcotest.(check int) "different tag leaves it alone" 0 (Alat.store_probe a 0x1008);
  Alcotest.(check bool) "still armed" true (Alat.check a tag ~clear:false)

let test_alat_register_keyed () =
  let a = Alat.create () in
  let t1 = Alat.int_tag ~frame:1 5 in
  let t2 = Alat.int_tag ~frame:1 6 in
  ignore (Alat.insert a t1 0x1000 ~site:(-1));
  Alcotest.(check bool) "other register misses" false (Alat.check a t2 ~clear:false);
  (* same register re-armed at a new address: only one entry *)
  ignore (Alat.insert a t1 0x2000 ~site:(-1));
  Alcotest.(check int) "old address no longer matches" 0 (Alat.store_probe a 0x1000);
  Alcotest.(check int) "new address matches" 1 (Alat.store_probe a 0x2000)

let test_alat_frames_isolated () =
  let a = Alat.create () in
  let t1 = Alat.int_tag ~frame:1 5 in
  let t2 = Alat.int_tag ~frame:2 5 in
  ignore (Alat.insert a t1 0x1000 ~site:(-1));
  Alcotest.(check bool) "same reg, other frame misses" false (Alat.check a t2 ~clear:false);
  Alat.purge_frame a ~frame:1;
  Alcotest.(check bool) "purged frame misses" false (Alat.check a t1 ~clear:false)

let test_alat_capacity_eviction () =
  let a = Alat.create ~size:32 ~ways:2 () in
  (* fill one set: addresses with identical set index *)
  let mk_addr i = i * 16 * 8 in
  let evicted = ref 0 in
  for i = 0 to 3 do
    if Alat.insert a (Alat.int_tag ~frame:1 i) (mk_addr i) ~site:(-1) <> None then
      incr evicted
  done;
  Alcotest.(check bool) "third insert into a 2-way set evicts" true (!evicted >= 1)

let test_alat_fp_tags_distinct () =
  let a = Alat.create () in
  let ti = Alat.int_tag ~frame:1 3 in
  let tf = Alat.fp_tag ~frame:1 3 in
  ignore (Alat.insert a ti 0x1000 ~site:(-1));
  Alcotest.(check bool) "fp tag distinct from int tag" false (Alat.check a tf ~clear:false)

let test_alat_invala_all () =
  let a = Alat.create () in
  ignore (Alat.insert a (Alat.int_tag ~frame:1 1) 0x10 ~site:(-1));
  ignore (Alat.insert a (Alat.int_tag ~frame:1 2) 0x20 ~site:(-1));
  Alcotest.(check int) "occupancy" 2 (Alat.occupancy a);
  Alat.invala_all a;
  Alcotest.(check int) "empty" 0 (Alat.occupancy a)

(* --- cache tests --- *)

let test_cache_hit_miss () =
  let c = Cache.create () in
  let ctr = Counters.create () in
  let lat1 = Cache.load_latency c ctr ~fp:false 0x4000 in
  Alcotest.(check bool) "cold miss is slow" true (lat1 > Timing.lat_l1);
  let lat2 = Cache.load_latency c ctr ~fp:false 0x4000 in
  Alcotest.(check int) "warm hit is 2 cycles" Timing.lat_l1 lat2;
  (* same line, different word: still a hit *)
  let lat3 = Cache.load_latency c ctr ~fp:false 0x4008 in
  Alcotest.(check int) "same line hits" Timing.lat_l1 lat3

let test_cache_fp_latency () =
  let c = Cache.create () in
  let ctr = Counters.create () in
  ignore (Cache.load_latency c ctr ~fp:true 0x8000);
  let lat = Cache.load_latency c ctr ~fp:true 0x8000 in
  Alcotest.(check int) "fp loads cost 9 cycles even when resident" Timing.lat_fp lat

let test_cache_capacity () =
  let c = Cache.create () in
  let ctr = Counters.create () in
  (* stream 1 MiB: must overflow 16 KiB L1 *)
  for i = 0 to 16_383 do
    ignore (Cache.load_latency c ctr ~fp:false (i * 64))
  done;
  let lat = Cache.load_latency c ctr ~fp:false 0x0 in
  Alcotest.(check bool) "evicted line misses L1" true (lat > Timing.lat_l1)

(* --- RSE tests --- *)

let test_rse_no_overflow () =
  let r = Rse.create ~phys_total:96 () in
  let c = Counters.create () in
  Alcotest.(check int) "small frames free" 0 (Rse.call r c ~nregs:30);
  Alcotest.(check int) "still free" 0 (Rse.call r c ~nregs:30);
  Alcotest.(check int) "ret free" 0 (Rse.ret r c);
  Alcotest.(check int) "rse cycles zero" 0 c.Counters.rse_cycles

let test_rse_overflow_spill_fill () =
  let r = Rse.create ~phys_total:96 () in
  let c = Counters.create () in
  ignore (Rse.call r c ~nregs:60);
  let spill = Rse.call r c ~nregs:60 in
  Alcotest.(check int) "spills the overflow" 24 spill;
  Alcotest.(check int) "spilled regs counted" 24 c.Counters.rse_spilled_regs;
  let fill = Rse.ret r c in
  Alcotest.(check int) "fills the caller back" 24 fill;
  Alcotest.(check int) "rse cycles = spill + fill" 48 c.Counters.rse_cycles

let test_rse_deep_recursion () =
  let r = Rse.create ~phys_total:96 () in
  let c = Counters.create () in
  for _ = 1 to 10 do
    ignore (Rse.call r c ~nregs:20)
  done;
  Alcotest.(check bool) "deep stack spilled" true (c.Counters.rse_spilled_regs > 0);
  Alcotest.(check int) "max stacked peaks before spilling" 116 c.Counters.max_stacked_regs;
  for _ = 1 to 10 do
    ignore (Rse.ret r c)
  done;
  Alcotest.(check bool) "fills happened" true (c.Counters.rse_filled_regs > 0)

(* --- static branch prediction on br.cond ---

   The machine predicts by direction alone: a branch whose taken target
   sits at a lower address than the branch is predicted taken, any other
   is predicted not taken (machine.ml).  These hand-assembled programs pin
   each quadrant of that contract, plus the degenerate taken-to-next-pc
   case, so a layout change can't silently redefine what "mispredict"
   means. *)

module Insn = Srp_target.Insn

let raw_main code ~nregs =
  let funcs = Hashtbl.create 1 in
  Hashtbl.replace funcs "main"
    { Insn.name = "main"; formals = []; code; bundles = None; nregs;
      nfregs = 0; frame_bytes = 0; slot_of_sym = Hashtbl.create 1 };
  { Insn.funcs; func_order = [ "main" ]; globals = [] }

let run_raw code ~nregs =
  let exit_code, _, c = Srp_machine.Machine.run_program (raw_main code ~nregs) in
  (exit_code, c)

let test_predict_taken_backward () =
  (* a 3-iteration countdown: the backward latch branch is predicted taken,
     so only the final not-taken exit mispredicts *)
  let code =
    [| Insn.Movl { dst = 1; imm = 3L };
       Insn.Alu { op = Insn.Asub; dst = 1; a = Insn.SReg 1; b = Insn.SImm 1L };
       Insn.Alu { op = Insn.Acmp_gt; dst = 2; a = Insn.SReg 1; b = Insn.SImm 0L };
       Insn.Brc { cond = 2; ifso = 1; ifnot = 4; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) } |]
  in
  let exit_code, c = run_raw code ~nregs:3 in
  Alcotest.(check int64) "exits through ifnot" 0L exit_code;
  Alcotest.(check int) "only the loop exit mispredicts" 1
    c.Counters.branch_mispredicts

let test_predict_taken_forward () =
  let code =
    [| Insn.Movl { dst = 1; imm = 1L };
       Insn.Brc { cond = 1; ifso = 3; ifnot = 2; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 1L) };
       Insn.Ret { value = Some (Insn.SImm 0L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "takes the branch" 0L exit_code;
  Alcotest.(check int) "taken forward branch mispredicts" 1
    c.Counters.branch_mispredicts

let test_predict_not_taken_forward () =
  let code =
    [| Insn.Movl { dst = 1; imm = 0L };
       Insn.Brc { cond = 1; ifso = 3; ifnot = 2; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) };
       Insn.Ret { value = Some (Insn.SImm 1L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "falls through" 0L exit_code;
  Alcotest.(check int) "not-taken forward branch predicted" 0
    c.Counters.branch_mispredicts

let test_predict_not_taken_backward () =
  let code =
    [| Insn.Movl { dst = 1; imm = 0L };
       Insn.Nop;
       Insn.Brc { cond = 1; ifso = 1; ifnot = 3; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "falls through" 0L exit_code;
  Alcotest.(check int) "not-taken backward branch mispredicts" 1
    c.Counters.branch_mispredicts

let test_predict_taken_to_next_pc () =
  (* ifso = pc + 1: still a *forward* taken branch by direction, so it
     mispredicts — the predictor keys on direction, not on whether the
     target happens to be the fall-through address *)
  let code =
    [| Insn.Movl { dst = 1; imm = 1L };
       Insn.Brc { cond = 1; ifso = 2; ifnot = 3; site = 7 };
       Insn.Ret { value = Some (Insn.SImm 0L) };
       Insn.Ret { value = Some (Insn.SImm 1L) } |]
  in
  let exit_code, c = run_raw code ~nregs:2 in
  Alcotest.(check int64) "lands on next pc" 0L exit_code;
  Alcotest.(check int) "taken-to-next-pc still mispredicts" 1
    c.Counters.branch_mispredicts

(* --- machine vs interpreter differential on hand-written programs --- *)

let differential src =
  let ref_prog = Srp_frontend.Lower.compile_source src in
  let code_i, out_i, _ = Srp_profile.Interp.run_program ref_prog in
  let prog = Srp_frontend.Lower.compile_source src in
  let tgt = Srp_target.Codegen.gen_program prog in
  let code_m, out_m, _ = Srp_machine.Machine.run_program tgt in
  Alcotest.(check string) "stdout agrees" out_i out_m;
  Alcotest.(check int64) "exit code agrees" code_i code_m

let test_machine_arith () =
  differential {|
int main() {
  print_int(7 / 2); print_int(-7 / 2); print_int(7 % 3); print_int(-7 % 3);
  print_int(1 << 10); print_int(-16 >> 2);
  print_int(5 & 3); print_int(5 | 3); print_int(5 ^ 3); print_int(~5);
  print_float(1.0 / 3.0); print_float(0.1 + 0.2);
  print_int(3.9);
  print_float(3);
  return 0;
}
|}

let test_machine_control () =
  differential {|
int main() {
  int i; int s = 0;
  for (i = 0; i < 10; i = i + 1) {
    if (i % 2 == 0) { s = s + i; } else { s = s - 1; }
    if (i == 7) { break; }
  }
  while (s > 0) { s = s - 3; }
  do { s = s + 1; } while (s < 2);
  print_int(s);
  return s;
}
|}

let test_machine_heap_structs () =
  differential {|
struct node { int v; double w; struct node* next; };
int main() {
  struct node* head = 0;
  int i;
  for (i = 0; i < 8; i = i + 1) {
    struct node* n = malloc(24);
    n->v = i * 3;
    n->w = i * 0.5;
    n->next = head;
    head = n;
  }
  int s = 0; double t = 0.0;
  while (head != 0) { s += head->v; t = t + head->w; head = head->next; }
  print_int(s); print_float(t);
  return 0;
}
|}

let test_machine_functions () =
  differential {|
int square(int x) { return x * x; }
double mix(double a, int b) { return a * b + 0.5; }
int rec(int n) { if (n <= 1) { return 1; } return n * rec(n - 1); }
int main() {
  print_int(square(12));
  print_float(mix(1.5, 4));
  print_int(rec(10));
  return 0;
}
|}

let test_machine_zero_init () =
  differential {|
int arr[4];
double darr[4];
int g;
int main() {
  print_int(arr[2]); print_float(darr[1]); print_int(g);
  return 0;
}
|}

let test_counters_sane () =
  let src = {|
int g;
int main() {
  int i;
  for (i = 0; i < 100; i = i + 1) { g = g + i; }
  print_int(g);
  return 0;
}
|} in
  let prog = Srp_frontend.Lower.compile_source src in
  let tgt = Srp_target.Codegen.gen_program prog in
  let _, _, c = Srp_machine.Machine.run_program tgt in
  Alcotest.(check bool) "cycles positive" true (c.Counters.cycles > 0);
  Alcotest.(check bool) "instrs >= loads + stores" true
    (c.Counters.instrs_retired >= c.Counters.loads_retired + c.Counters.stores_retired);
  (* issue_width-wide machine: cycles >= instrs / issue_width *)
  Alcotest.(check bool) "ipc bounded by width" true
    (c.Counters.cycles * Timing.issue_width >= c.Counters.instrs_retired)

(* f(n) = f(n - 1) + 1, recursing [depth] calls deep: every frame
   overflows the RSE pool once the stack is a few frames tall. *)
let recursion_src depth =
  Fmt.str
    {|
int f(int n) {
  if (n == 0) return 0;
  return f(n - 1) + 1;
}
int main() {
  print_int(f(%d));
  return 0;
}
|}
    depth

(* The spill walk's RSE traffic at O0, pinned at depths where the old
   list-walking RSE still finished (it was O(depth^4) over a run). *)
let test_rse_recursion_pinned () =
  List.iter
    (fun (depth, rse_cycles) ->
      let prog = Srp_frontend.Lower.compile_source (recursion_src depth) in
      let tgt = Srp_target.Codegen.gen_program prog in
      let _, out, c = Srp_machine.Machine.run_program tgt in
      Alcotest.(check string) "output" (Fmt.str "%d\n" depth) out;
      Alcotest.(check int)
        (Fmt.str "rse_cycles at depth %d" depth)
        rse_cycles c.Counters.rse_cycles)
    [ (250, 1964); (500, 3964); (1000, 7964) ]

let test_rse_recursion_deep () = differential (recursion_src 2000)

(* A huge heap block must not run into the stack: the interpreter runs
   both programs, and so must the machine (it once raised "wild access"
   for the first and "alloc_at: overlap" for the second, its stack then
   starting at 0x4000_0000). *)
let test_huge_malloc_store () =
  differential {|
int main() {
  int* p = malloc(8000000000);
  p[999999999] = 7;
  print_int(p[999999999]);
  return 0;
}
|}

let test_huge_malloc_then_call () =
  differential {|
int twice(int x) { return x + x; }
int main() {
  int* p = malloc(1200000000);
  p[0] = 21;
  print_int(twice(p[0]));
  return 0;
}
|}

(* A block that would reach the stack fails with an error that names the
   allocation (the interpreter, which has no stack in its address space,
   runs it). *)
let test_heap_exhausted () =
  let src =
    "int main() { int* p = malloc(52776558133248); p[0] = 1; return p[0]; }"
  in
  let tgt = Srp_target.Codegen.gen_program (Srp_frontend.Lower.compile_source src) in
  match Srp_machine.Machine.run_program tgt with
  | _ -> Alcotest.fail "a 48 TB malloc succeeded"
  | exception Srp_machine.Machine.Machine_error msg ->
    let has needle =
      let n = String.length needle in
      let rec go i = i + n <= String.length msg && (String.sub msg i n = needle || go (i + 1)) in
      go 0
    in
    Alcotest.(check bool) ("names the malloc: " ^ msg) true (has "malloc(52776558133248)");
    Alcotest.(check bool) "no wild access" false (has "wild access");
    Alcotest.(check bool) "no overlap" false (has "overlap")

(* Addresses are OCaml ints inside the machine; a 64-bit address beyond
   them still faults with the memory's own message, and ld.sa still
   defers it to a NaT. *)
let test_far_address () =
  let far = Int64.min_int in
  let ld kind = Insn.Ld { kind; dst = Insn.DInt 2; base = 1; site = 3 } in
  let run body =
    run_raw (Array.append [| Insn.Movl { dst = 1; imm = far } |] body) ~nregs:3
  in
  Alcotest.check_raises "ld faults at the full address"
    (Srp_profile.Value.Interp_error "wild access at 0x8000000000000000") (fun () ->
      ignore (run [| ld Insn.K_ld; Insn.Ret { value = None } |]));
  Alcotest.check_raises "st faults at the full address"
    (Srp_profile.Value.Interp_error "wild access at 0x8000000000000000") (fun () ->
      ignore
        (run [| Insn.St { src = Insn.SImm 1L; base = 1; site = 3 }; Insn.Ret { value = None } |]));
  let code, c = run [| ld Insn.K_ld_sa; Insn.Ret { value = Some (Insn.SImm 7L) } |] in
  Alcotest.(check int64) "ld.sa defers" 7L code;
  Alcotest.(check int) "no load retired" 0 c.Counters.loads_retired

let test_machine_fuel () =
  let src = "int main() { while (1) { } return 0; }" in
  let prog = Srp_frontend.Lower.compile_source src in
  let tgt = Srp_target.Codegen.gen_program prog in
  Alcotest.check_raises "runs out of fuel" Srp_machine.Machine.Out_of_fuel (fun () ->
      ignore (Srp_machine.Machine.run_program ~fuel:10_000 tgt))

(* --- model tests: the ALAT and the paged memory against naive models ---

   Random operation sequences run on the real structure and on a model
   written the obvious way; every result and the occupancy must agree
   after every step. *)

(* The ALAT model: 32 entries in a list-like array, scanned in full for
   every operation, round-robin replacement. *)
module Alat_model = struct
  type e = { mutable valid : bool; mutable tag : int * int * bool;
             mutable paddr : int; mutable site : int }

  type t = { es : e array; mutable victim : int }

  let create () =
    { es = Array.init 32 (fun _ -> { valid = false; tag = (0, 0, false); paddr = 0; site = -1 });
      victim = 0 }

  let partial a = Int64.to_int (Int64.shift_right_logical a 3) land 0xfff
  let remove t tag = Array.iter (fun e -> if e.valid && e.tag = tag then e.valid <- false) t.es

  let insert t tag a site =
    remove t tag;
    let slot, ev =
      match List.find_opt (fun i -> not t.es.(i).valid) (List.init 32 Fun.id) with
      | Some i -> (i, None)
      | None ->
        let i = t.victim mod 32 in
        t.victim <- t.victim + 1;
        (i, Some t.es.(i).site)
    in
    let e = t.es.(slot) in
    e.valid <- true; e.tag <- tag; e.paddr <- partial a; e.site <- site;
    ev

  let check t tag ~clear =
    let hit = ref false in
    Array.iter (fun e -> if e.valid && e.tag = tag then (hit := true; if clear then e.valid <- false)) t.es;
    !hit

  let probe t a =
    let pa = partial a in
    Array.fold_left
      (fun acc e -> if e.valid && e.paddr = pa then (e.valid <- false; e.site :: acc) else acc)
      [] t.es

  let purge t frame =
    Array.iter (fun e -> let f, _, _ = e.tag in if e.valid && f = frame then e.valid <- false) t.es

  let occupancy t = Array.fold_left (fun n e -> if e.valid then n + 1 else n) 0 t.es
end

type alat_op =
  | A_insert of int * int * bool * int64 * int
  | A_check of int * int * bool * bool
  | A_remove of int * int * bool
  | A_probe of int64
  | A_purge of int
  | A_invala

let show_alat_op = function
  | A_insert (f, r, fp, a, s) -> Fmt.str "insert(%d,%d,%b,0x%Lx,s%d)" f r fp a s
  | A_check (f, r, fp, c) -> Fmt.str "check(%d,%d,%b,clear=%b)" f r fp c
  | A_remove (f, r, fp) -> Fmt.str "remove(%d,%d,%b)" f r fp
  | A_probe a -> Fmt.str "probe(0x%Lx)" a
  | A_purge f -> Fmt.str "purge(%d)" f
  | A_invala -> "invala"

let gen_alat_op =
  let open QCheck.Gen in
  (* few frames/registers/addresses, so hits, partial-tag collisions and
     capacity evictions (3 x 7 x 2 = 42 tags > 32 entries) all happen *)
  let frame = int_range 1 3 and reg = int_range 0 6 in
  let addr =
    map2 (fun w far -> Int64.of_int ((w * 8) + if far then 4096 * 8 else 0))
      (int_range 0 11) (frequency [ (4, return false); (1, return true) ])
  in
  frequency
    [ (6, map (fun ((f, r, fp), (a, s)) -> A_insert (f, r, fp, a, s))
            (pair (triple frame reg bool) (pair addr (int_range 0 9))));
      (4, map (fun ((f, r, fp), c) -> A_check (f, r, fp, c)) (pair (triple frame reg bool) bool));
      (1, map (fun (f, r, fp) -> A_remove (f, r, fp)) (triple frame reg bool));
      (4, map (fun a -> A_probe a) addr);
      (1, map (fun f -> A_purge f) frame);
      (1, return A_invala) ]

let arb_alat_ops =
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun ops -> String.concat "; " (List.map show_alat_op ops))
    QCheck.Gen.(list_size (int_range 1 300) gen_alat_op)

let alat_agrees ops =
  let a = Alat.create () and m = Alat_model.create () in
  let tag f r fp = if fp then Alat.fp_tag ~frame:f r else Alat.int_tag ~frame:f r in
  List.for_all
    (fun op ->
      let same =
        match op with
        | A_insert (f, r, fp, addr, site) ->
          Alat.insert a (tag f r fp) (Int64.to_int addr) ~site = Alat_model.insert m (f, r, fp) addr site
        | A_check (f, r, fp, clear) ->
          Alat.check a (tag f r fp) ~clear = Alat_model.check m (f, r, fp) ~clear
        | A_remove (f, r, fp) ->
          Alat.remove a (tag f r fp);
          Alat_model.remove m (f, r, fp);
          true
        | A_probe addr -> Alat.store_probe_sites a (Int64.to_int addr) = Alat_model.probe m addr
        | A_purge f ->
          Alat.purge_frame a ~frame:f;
          Alat_model.purge m f;
          true
        | A_invala ->
          Alat.invala_all a;
          Array.iter (fun e -> e.Alat_model.valid <- false) m.Alat_model.es;
          true
      in
      same && Alat.occupancy a = Alat_model.occupancy m)
    ops

(* The memory model: the original store, an (address, value) hash table
   plus a map of regions searched on every access. *)
module Memory_model = struct
  module IMap = Map.Make (Int64)
  module Value = Srp_profile.Value

  type region = { base : int64; size : int; loc : Srp_alias.Location.t }

  type t = { cells : (int64, Value.t) Hashtbl.t; mutable regions : region IMap.t;
             mutable brk : int64 }

  let create () = { cells = Hashtbl.create 64; regions = IMap.empty; brk = 0x1000L }

  let alloc t ~size ~loc =
    let size = (max size 8 + 7) / 8 * 8 in
    let base = t.brk in
    t.brk <- Int64.add t.brk (Int64.of_int (size + 8));
    t.regions <- IMap.add base { base; size; loc } t.regions;
    base

  let region_of_addr t addr =
    match IMap.find_last_opt (fun b -> Int64.compare b addr <= 0) t.regions with
    | Some (_, r) when Int64.compare addr (Int64.add r.base (Int64.of_int r.size)) < 0 -> Some r
    | _ -> None

  let alloc_at t ~base ~size ~loc =
    let size = max 8 ((size + 7) / 8 * 8) in
    if Int64.rem base 8L <> 0L then Value.err "alloc_at: unaligned base 0x%Lx" base;
    (match IMap.find_last_opt (fun b -> Int64.compare b base <= 0) t.regions with
    | Some (_, r) when Int64.compare base (Int64.add r.base (Int64.of_int r.size)) < 0 ->
      Value.err "alloc_at: overlap at 0x%Lx" base
    | _ -> ());
    t.regions <- IMap.add base { base; size; loc } t.regions;
    base

  let free t base =
    match IMap.find_opt base t.regions with
    | None -> Value.err "free of unknown region at 0x%Lx" base
    | Some r ->
      (* erase the region's cells (by scanning the table, which a 1 GB
         region makes cheaper than walking its words) *)
      let stop = Int64.add base (Int64.of_int r.size) in
      Hashtbl.filter_map_inplace
        (fun a v ->
          if Int64.compare a base >= 0 && Int64.compare a stop < 0 then None else Some v)
        t.cells;
      t.regions <- IMap.remove base t.regions

  let location_of_addr t addr = Option.map (fun r -> r.loc) (region_of_addr t addr)

  let check_addr t addr =
    if Int64.rem addr 8L <> 0L then Value.err "unaligned access at 0x%Lx" addr;
    if region_of_addr t addr = None then Value.err "wild access at 0x%Lx" addr

  let load t addr =
    check_addr t addr;
    Option.value ~default:(Value.Vint 0L) (Hashtbl.find_opt t.cells addr)

  let store t addr v =
    check_addr t addr;
    Hashtbl.replace t.cells addr v
end

type mem_op =
  | M_alloc of int * int
  | M_alloc_at of int64 * int * int
  | M_free of int (* nth region base, or a bogus address *)
  | M_load of int * int (* nth region, byte offset *)
  | M_store of int * int * Srp_profile.Value.t
  | M_where of int * int

let show_mem_op = function
  | M_alloc (n, s) -> Fmt.str "alloc(%d,h%d)" n s
  | M_alloc_at (b, n, s) -> Fmt.str "alloc_at(0x%Lx,%d,h%d)" b n s
  | M_free k -> Fmt.str "free(#%d)" k
  | M_load (k, o) -> Fmt.str "load(#%d%+d)" k o
  | M_store (k, o, v) -> Fmt.str "store(#%d%+d,%a)" k o Srp_profile.Value.pp v
  | M_where (k, o) -> Fmt.str "where(#%d%+d)" k o

let gen_mem_op =
  let open QCheck.Gen in
  let size =
    frequency
      [ (8, int_range 1 80); (2, int_range 1000 6000); (1, return 1_000_000_000) ]
  in
  (* near the heap start, among the small regions, or far above it *)
  let base =
    map2 (fun w high -> Int64.of_int ((if high then 0x4000_0000 else 0x1000) + w))
      (frequency [ (6, map (fun w -> w * 8) (int_range 0 200)); (1, int_range 0 1600) ])
      bool
  in
  (* offsets straddle region starts, ends and red zones, sometimes
     unaligned; page strides into the big regions materialize enough
     pages that blank ones get swept *)
  let offset =
    frequency
      [ (6, map (fun w -> w * 8) (int_range (-3) 12)); (1, int_range (-20) 100);
        (1, return (1_000_000_000 - 8)); (1, return 0x1000_0000);
        (2, map (fun k -> k * 4096) (int_range 0 300)) ]
  in
  let value =
    oneof
      [ map (fun i -> Srp_profile.Value.Vint (Int64.of_int i)) (int_range (-5) 5);
        map (fun x -> Srp_profile.Value.Vflt x) (oneofl [ 0.0; -0.0; 1.5; nan ]) ]
  in
  let region = int_range 0 20 in
  frequency
    [ (3, map2 (fun n s -> M_alloc (n, s)) size (int_range 0 3));
      (3, map3 (fun b n s -> M_alloc_at (b, n, s)) base size (int_range 0 3));
      (2, map (fun k -> M_free k) region);
      (5, map2 (fun k o -> M_load (k, o)) region offset);
      (5, map3 (fun k o v -> M_store (k, o, v)) region offset value);
      (3, map2 (fun k o -> M_where (k, o)) region offset) ]

let arb_mem_ops =
  QCheck.make ~shrink:QCheck.Shrink.list
    ~print:(fun ops -> String.concat "; " (List.map show_mem_op ops))
    QCheck.Gen.(list_size (int_range 1 200) gen_mem_op)

let mem_agrees ops =
  let module M = Srp_profile.Memory in
  let module V = Srp_profile.Value in
  let m = M.create () and r = Memory_model.create () in
  (* bases handed out so far, most recent first; #k names the k-th *)
  let bases = ref [] in
  let nth k = match List.nth_opt !bases k with Some b -> b | None -> Int64.of_int (0x20 + k) in
  let outcome f = match f () with v -> Ok v | exception V.Interp_error e -> Error e in
  let same_val a b =
    match a, b with
    | Ok x, Ok y -> V.equal x y
    | Error x, Error y -> x = y
    | _ -> false
  in
  let heap k = Srp_alias.Location.Heap k in
  List.for_all
    (fun op ->
      match op with
      | M_alloc (n, s) ->
        let b = M.alloc m ~size:n ~loc:(heap s) in
        let b' = Memory_model.alloc r ~size:n ~loc:(heap s) in
        bases := b :: !bases;
        b = b'
      | M_alloc_at (base, n, s) ->
        let x = outcome (fun () -> M.alloc_at m ~base ~size:n ~loc:(heap s)) in
        let y = outcome (fun () -> Memory_model.alloc_at r ~base ~size:n ~loc:(heap s)) in
        (match x with Ok b -> bases := b :: !bases | Error _ -> ());
        x = y
      | M_free k ->
        let b = nth k in
        outcome (fun () -> M.free m b) = outcome (fun () -> Memory_model.free r b)
      | M_load (k, o) ->
        let a = Int64.add (nth k) (Int64.of_int o) in
        same_val (outcome (fun () -> M.load m a)) (outcome (fun () -> Memory_model.load r a))
        && same_val
             (outcome (fun () -> M.load_typed m a Srp_ir.Mem_ty.F64))
             (outcome (fun () ->
                  match Memory_model.load r a with
                  | V.Vint 0L -> V.Vflt 0.0
                  | v -> v))
      | M_store (k, o, v) ->
        let a = Int64.add (nth k) (Int64.of_int o) in
        outcome (fun () -> M.store m a v) = outcome (fun () -> Memory_model.store r a v)
      | M_where (k, o) ->
        let a = Int64.add (nth k) (Int64.of_int o) in
        Option.equal Srp_alias.Location.equal (M.location_of_addr m a)
          (Memory_model.location_of_addr r a))
    ops

let model_tests =
  List.map QCheck_alcotest.to_alcotest
    [ QCheck.Test.make ~count:500 ~name:"alat vs 32-entry list model" arb_alat_ops
        alat_agrees;
      QCheck.Test.make ~count:1000 ~name:"paged memory vs map+table model" arb_mem_ops
        mem_agrees ]

(* --- golden pin: every observable of the machine, digested ---

   One MD5 per run over the exit code, the output, Counters.to_json,
   Site_hist.to_json and (kernels only) the timeline rows sampled every
   [golden_interval] cycles: for each of the 10 kernels at every
   Pipeline level on its ref input, and for test_random's seeds 1-80 at
   each of the six levels run_seed simulates.  The digests live in
   test/golden_machine.txt, which is regenerated only on a deliberate
   re-baseline of the simulator (like bench/baseline.json):

     SRP_GOLDEN_OUT=$PWD/test/golden_machine.txt \
       dune exec test/test_main.exe -- test golden *)

let golden_interval = 100_000
let golden_seeds = List.init 80 (fun i -> i + 1)

let golden_path () =
  List.find Sys.file_exists [ "golden_machine.txt"; "test/golden_machine.txt" ]

let read_lines path =
  let ic = open_in_bin path in
  Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let run_digest ?timeline_rows code out c h =
  Digest.to_hex
    (Digest.string
       (String.concat "\x00"
          ([ Int64.to_string code; out;
             Srp_obs.Json.to_string (Counters.to_json c);
             Srp_obs.Json.to_string (Srp_obs.Site_hist.to_json h) ]
          @ Option.value ~default:[] timeline_rows)))

let kernel_digest (w : Srp_driver.Workload.t) level =
  let path = Filename.temp_file "srp_golden" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out_bin path in
  let sink = Srp_obs.Trace.create ~limit:max_int oc in
  let timeline = Srp_machine.Timeline.create ~interval:golden_interval sink in
  let r = Srp_driver.Pipeline.profile_compile_run ~timeline w level in
  Srp_obs.Trace.close sink;
  close_out oc;
  run_digest ~timeline_rows:(read_lines path) r.Srp_driver.Pipeline.exit_code
    r.Srp_driver.Pipeline.output r.Srp_driver.Pipeline.counters
    r.Srp_driver.Pipeline.site_stats

let seed_digests seed =
  let src = Gen_minic.program ~seed () in
  let _, _, profile = Test_random.interp_reference src in
  List.map
    (fun (name, config) ->
      let m =
        Srp_machine.Machine.create ~fuel:50_000_000
          (Test_random.compile_target src config)
      in
      let code = Srp_machine.Machine.run m in
      ( Fmt.str "seed-%d %s" seed name,
        run_digest code (Srp_machine.Machine.output m)
          (Srp_machine.Machine.counters m) (Srp_machine.Machine.site_stats m) ))
    (Test_random.level_configs profile)

let golden_digests () =
  List.concat_map
    (fun (w : Srp_driver.Workload.t) ->
      List.map
        (fun l ->
          ( Fmt.str "%s %s" w.Srp_driver.Workload.name
              (Srp_driver.Pipeline.level_name l),
            kernel_digest w l ))
        Srp_driver.Pipeline.all_levels)
    (Srp_workloads.Registry.all ())
  @ List.concat_map seed_digests golden_seeds

let test_golden () =
  let got = golden_digests () in
  match Sys.getenv_opt "SRP_GOLDEN_OUT" with
  | Some path ->
    let oc = open_out_bin path in
    List.iter (fun (k, d) -> Printf.fprintf oc "%s %s\n" d k) got;
    close_out oc
  | None ->
    let expected =
      List.map
        (fun l ->
          match String.index_opt l ' ' with
          | Some i -> (String.sub l (i + 1) (String.length l - i - 1), String.sub l 0 i)
          | None -> Alcotest.failf "malformed golden line %S" l)
        (read_lines (golden_path ()))
    in
    Alcotest.(check (list string)) "golden runs"
      (List.map fst expected) (List.map fst got);
    List.iter
      (fun (k, d) -> Alcotest.(check string) k (List.assoc k expected) d)
      got

let suite =
  [ Alcotest.test_case "alat arm/check/clear" `Quick test_alat_arm_check;
    Alcotest.test_case "alat store invalidation" `Quick test_alat_store_invalidation;
    Alcotest.test_case "alat partial-tag collisions" `Quick test_alat_partial_tag_false_collision;
    Alcotest.test_case "alat keyed by register" `Quick test_alat_register_keyed;
    Alcotest.test_case "alat frame isolation + purge" `Quick test_alat_frames_isolated;
    Alcotest.test_case "alat capacity eviction" `Quick test_alat_capacity_eviction;
    Alcotest.test_case "alat fp/int tags distinct" `Quick test_alat_fp_tags_distinct;
    Alcotest.test_case "alat invala_all" `Quick test_alat_invala_all;
    Alcotest.test_case "cache hit/miss" `Quick test_cache_hit_miss;
    Alcotest.test_case "cache fp latency" `Quick test_cache_fp_latency;
    Alcotest.test_case "cache capacity" `Quick test_cache_capacity;
    Alcotest.test_case "rse no overflow" `Quick test_rse_no_overflow;
    Alcotest.test_case "rse spill/fill" `Quick test_rse_overflow_spill_fill;
    Alcotest.test_case "rse deep recursion" `Quick test_rse_deep_recursion;
    Alcotest.test_case "rse recursion traffic pinned" `Quick
      test_rse_recursion_pinned;
    Alcotest.test_case "rse depth-2000 recursion (vs interp)" `Quick
      test_rse_recursion_deep;
    Alcotest.test_case "predict taken backward" `Quick test_predict_taken_backward;
    Alcotest.test_case "predict taken forward" `Quick test_predict_taken_forward;
    Alcotest.test_case "predict not-taken forward" `Quick test_predict_not_taken_forward;
    Alcotest.test_case "predict not-taken backward" `Quick test_predict_not_taken_backward;
    Alcotest.test_case "predict taken to next pc" `Quick test_predict_taken_to_next_pc;
    Alcotest.test_case "machine arith (vs interp)" `Quick test_machine_arith;
    Alcotest.test_case "machine control flow (vs interp)" `Quick test_machine_control;
    Alcotest.test_case "machine heap/structs (vs interp)" `Quick test_machine_heap_structs;
    Alcotest.test_case "machine functions (vs interp)" `Quick test_machine_functions;
    Alcotest.test_case "machine zero-init (vs interp)" `Quick test_machine_zero_init;
    Alcotest.test_case "counters sane" `Quick test_counters_sane;
    Alcotest.test_case "fuel exhaustion" `Quick test_machine_fuel;
    Alcotest.test_case "malloc(8e9) store/load (vs interp)" `Quick
      test_huge_malloc_store;
    Alcotest.test_case "malloc(1.2e9) then a call (vs interp)" `Quick
      test_huge_malloc_then_call;
    Alcotest.test_case "malloc into the stack names the malloc" `Quick
      test_heap_exhausted;
    Alcotest.test_case "addresses beyond 63 bits" `Quick test_far_address ]
  @ model_tests

(* its own suite, so the generator command can select it by name *)
let golden_suite =
  [ Alcotest.test_case "golden: kernels x levels" `Slow test_golden ]
