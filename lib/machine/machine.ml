(* The machine: functional execution of target code interleaved with an
   in-order, 6-issue pipeline timing model (a 733 MHz Itanium in spirit).

   Timing model: instructions issue in order; an issue group holds up to
   [Timing.issue_width] (6) instructions with at most [m_units] (2)
   memory ops and [f_units] (2) FP ops per cycle.  A scoreboard of
   per-register ready times stalls issue until operands are ready; stall
   cycles whose critical operand was produced by a memory operation count
   as data-access cycles (the paper's second metric in Figure 8).
   Taken-branch redirects cost one bubble; mispredictions (static
   backward-taken/forward-not-taken) cost a [mispredict_penalty] flush.
   Every price is Srp_ir.Timing's, and every result latency and issue
   class Insn's — the same figures the compiler plans with.

   Functional model: memory is the same region-tracked store the IR
   interpreter uses, so outputs are bit-comparable for differential
   testing.  NaT bits give ld.sa its deferred-fault semantics; reading a
   NaT register anywhere but a check is a simulator error (it would mean
   the compiler consumed an unchecked speculative value).

   Decoded form: [create] decodes every function once.  Registers,
   immediates and global addresses all become slots of two flat register
   files per frame — integer slots hold raw int64 bits in a [Bytes],
   float slots a [float array] — with each immediate in a constant slot
   past the function's registers, so every operand read is an array
   access.  Callees resolve to indices into the function array; issue
   classes, latencies, bundle ports, stop bits and split-stall sites are
   precomputed.  Operand indices and branch targets are validated here,
   which is what lets the execute loop skip bounds checks; an ill-typed
   or unresolvable instruction decodes into a [Fault] that raises the
   error only if it is executed. *)

open Srp_target
module Timing = Srp_ir.Timing
module Value = Srp_profile.Value
module Memory = Srp_profile.Memory
module Location = Srp_alias.Location
module Site_hist = Srp_obs.Site_hist
module Trace = Srp_obs.Trace
module J = Srp_obs.Json

exception Machine_error of string

let merror fmt = Fmt.kstr (fun s -> raise (Machine_error s)) fmt

exception Out_of_fuel

(* Address space: globals and the heap bump up from 0x1000 (Memory.alloc)
   toward [heap_limit]; the stack descends from [stack_top].  The stack
   top keeps the low 15 bits of the original 0x4000_0000, so ALAT partial
   tags (address bits 3-14) and cache set indices (bits 6-14) of stack
   slots are what they always were. *)
let stack_top = 0x4000_0000_0000L
let heap_limit = 0x2000_0000_0000L

(* --- the decoded form --- *)

(* Operands: a slot index of one register file.  An [any] operand or
   destination carries its file in bit 0 (1 = float): [slot lsl 1 lor fp]. *)
type op =
  | Mov_i of { dst : int; src : int; lat : int } (* Movl, Gaddr, int mov *)
  | Mov_f of { dst : int; src : int; lat : int }
  | Mov_x of { dst : int; src : int; lat : int } (* across files: [any]s *)
  | Alu of { op : Insn.ialu; dst : int; a : int; b : int; lat : int }
  | Falu of { op : Insn.falu; dst : int; a : int; b : int; lat : int }
  | Fcmp of { op : Insn.fcmp; dst : int; a : int; b : int; lat : int }
  | Itof of { dst : int; src : int; lat : int }
  | Ftoi of { dst : int; src : int; lat : int }
  | Ld of { kind : Insn.ld_kind; fp : bool; dst : int; base : int; site : int }
  | St of { src : int; fp : bool; base : int; site : int }
  | Chk_a of { fp : bool; reg : int; recovery : int; site : int }
  | Invala_e of { fp : bool; reg : int }
  | Sel of { dst : int; cond : int; if_true : int; if_false : int; lat : int }
  | Br of { target : int }
  | Brc of { cond : int; ifso : int; ifnot : int; site : int; predict_taken : bool }
  | Call of { callee : int; args : int array; ret : int; lat : int }
  | Ret of { value : int (* -1: none *) }
  | Alloc of { dst : int; nbytes : int; site : int; lat : int }
  | Print_i of { src : int }
  | Print_f of { src : int }
  | Nop
  | Fault of { reads : int array; fail : frame -> unit }
      (* read [reads] ([any]s), issue, then [fail] raises *)
  | Bad_pc of { target : int } (* past the code: a branch target or the fall-off *)

and frame = {
  uid : int;
  iregs : Bytes.t; (* int64 per slot *)
  fregs : float array;
  (* scoreboard word per slot: (ready cycle lsl 2) lor (mem producer lsl 1)
     lor NaT *)
  isb : int array;
  fsb : int array;
}

(* A function decoded for execution.  [ops] is the code followed by one
   [Bad_pc] per distinct out-of-range target (the first being the
   fall-off at [Array.length code]), so every pc the loop can reach
   indexes [ops]. *)
type fn = {
  name : string;
  code : Insn.insn array;
  ops : op array;
  cls : int array; (* per op: 1 memory unit, 2 FP unit, 4 enters a bundle *)
  ports : int array; (* per bundle: M lor (F lsl 4) lor (B lsl 8) *)
  stops : bool array; (* per bundle *)
  split_site : int array; (* per bundle: the site a split stall is charged *)
  iinit : Bytes.t; (* int file image: registers zero, then the constants *)
  finit : float array;
  formals : int array; (* arrival destinations, [any]s *)
  nregs : int; (* for the RSE: the function's own integer registers *)
  frame_bytes : int;
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let[@inline] geti fr k = get64 fr.iregs (k lsl 3)
let[@inline] getf fr k = Array.unsafe_get fr.fregs k

(* Store the raw bits of [any] operand [o] of [fr] at [b] offset [off]:
   a float as its bit pattern.  (Each branch stores its own value: an
   int64 joined from two branches would be boxed.) *)
let[@inline] put_bits b off fr o =
  if o land 1 = 0 then set64 b off (geti fr (o lsr 1))
  else set64 b off (Int64.bits_of_float (getf fr (o lsr 1)))

let expected_int (x : float) = Value.err "expected int, got float %g" x
let expected_float (i : int64) = Value.err "expected float, got int %Ld" i

(* The error [Value] semantics raise for an operand of the wrong file:
   [o] was read as an int if it is a float slot, and vice versa. *)
let wrong_kind fr o =
  if o land 1 = 1 then expected_int (getf fr (o lsr 1))
  else expected_float (geti fr (o lsr 1))

(* The site a split stall is charged to: the first site-carrying syllable
   of the delayed bundle, -1 when the bundle has none (pads, pure ALU). *)
let bundle_site (code : Insn.insn array) pc =
  let site_of : Insn.insn -> int option = function
    | Insn.Ld { site; _ } | Insn.St { site; _ } | Insn.Chk_a { site; _ }
    | Insn.Brc { site; _ } | Insn.Alloc { site; _ } ->
      Some site
    | _ -> None
  in
  let rec go k =
    if k > 2 || pc + k >= Array.length code then -1
    else match site_of code.(pc + k) with Some s -> s | None -> go (k + 1)
  in
  go 0

exception Undecodable of string

let decode ~(index : string -> int option) ~(global : int -> int64 option)
    (func : Insn.func) : fn =
  let code = func.Insn.code in
  let n = Array.length code in
  let ni = max 1 func.Insn.nregs and nf = max 1 func.Insn.nfregs in
  (* constant slots, deduplicated (floats by bit pattern) *)
  let iconsts = Hashtbl.create 8 and fconsts = Hashtbl.create 8 in
  let ilist = ref [] and flist = ref [] in
  let iconst v =
    match Hashtbl.find_opt iconsts v with
    | Some k -> k
    | None ->
      let k = ni + Hashtbl.length iconsts in
      Hashtbl.replace iconsts v k;
      ilist := v :: !ilist;
      k
  in
  let fconst x =
    let key = Int64.bits_of_float x in
    match Hashtbl.find_opt fconsts key with
    | Some k -> k
    | None ->
      let k = nf + Hashtbl.length fconsts in
      Hashtbl.replace fconsts key k;
      flist := x :: !flist;
      k
  in
  let ireg r =
    if r < 0 || r >= ni || r >= 1 lsl 19 then
      raise (Undecodable (Fmt.str "%s: integer register r%d out of range" func.Insn.name r));
    r
  in
  let freg f =
    if f < 0 || f >= nf || f >= 1 lsl 19 then
      raise (Undecodable (Fmt.str "%s: float register f%d out of range" func.Insn.name f));
    f
  in
  let any : Insn.src -> int = function
    | Insn.SReg r -> ireg r lsl 1
    | Insn.SImm i -> iconst i lsl 1
    | Insn.SFrg f -> (freg f lsl 1) lor 1
    | Insn.SFim x -> (fconst x lsl 1) lor 1
  in
  let dest : Insn.dest -> int = function
    | Insn.DInt r -> ireg r lsl 1
    | Insn.DFlt f -> (freg f lsl 1) lor 1
  in
  let dest_reg : Insn.dest -> bool * int = function
    | Insn.DInt r -> (false, ireg r)
    | Insn.DFlt f -> (true, freg f)
  in
  (* targets past the code land on Bad_pc sentinels appended after it;
     the first, at [n], catches falling off the end *)
  let sentinels = Hashtbl.create 1 in
  Hashtbl.replace sentinels n n;
  let target t =
    if t >= 0 && t < n then t
    else
      match Hashtbl.find_opt sentinels t with
      | Some i -> i
      | None ->
        let i = n + Hashtbl.length sentinels in
        Hashtbl.replace sentinels t i;
        i
  in
  let fault reads fail = Fault { reads = Array.of_list reads; fail } in
  (* an operation over operands that must all be ints (or all floats):
     the first wrong one Value semantics evaluate (the last) raises *)
  let typed ~fp reads ok =
    match List.rev (List.filter (fun o -> o land 1 = 1 <> fp) reads) with
    | [] -> ok ()
    | o :: _ -> fault reads (fun fr -> wrong_kind fr o)
  in
  let slot o = o lsr 1 in
  let decode_insn pc (ins : Insn.insn) : op =
    let lat = Insn.latency ins in
    match ins with
    | Insn.Movl { dst; imm } -> Mov_i { dst = ireg dst; src = iconst imm; lat }
    | Insn.Gaddr { dst; sym } -> (
      let dst = ireg dst in
      match global sym with
      | Some a -> Mov_i { dst; src = iconst a; lat }
      | None -> fault [] (fun _ -> merror "unknown global symbol id %d" sym))
    | Insn.Mov { dst; src } -> (
      let d = dest dst and s = any src in
      match d land 1, s land 1 with
      | 0, 0 -> Mov_i { dst = slot d; src = slot s; lat }
      | 1, 1 -> Mov_f { dst = slot d; src = slot s; lat }
      | _ -> Mov_x { dst = d; src = s; lat })
    | Insn.Alu { op; dst; a; b } -> (
      let dst = ireg dst and a = any a and b = any b in
      match op with
      | (Insn.Adiv | Insn.Arem) when a land 1 = 1 && b land 1 = 0 ->
        (* Value.binop checks the divisor before it reads the dividend *)
        fault [ a; b ] (fun fr ->
            if geti fr (slot b) <> 0L then wrong_kind fr a
            else if op = Insn.Adiv then Value.err "integer division by zero"
            else Value.err "integer remainder by zero")
      | _ -> typed ~fp:false [ a; b ] (fun () -> Alu { op; dst; a = slot a; b = slot b; lat }))
    | Insn.Falu { op; dst; a; b } ->
      let dst = freg dst and a = any a and b = any b in
      typed ~fp:true [ a; b ] (fun () -> Falu { op; dst; a = slot a; b = slot b; lat })
    | Insn.Fcmp { op; dst; a; b } ->
      let dst = ireg dst and a = any a and b = any b in
      typed ~fp:true [ a; b ] (fun () -> Fcmp { op; dst; a = slot a; b = slot b; lat })
    | Insn.Itof { dst; src } ->
      let dst = freg dst and s = any src in
      typed ~fp:false [ s ] (fun () -> Itof { dst; src = slot s; lat })
    | Insn.Ftoi { dst; src } ->
      let dst = ireg dst and s = any src in
      typed ~fp:true [ s ] (fun () -> Ftoi { dst; src = slot s; lat })
    | Insn.Ld { kind; dst; base; site } ->
      let fp, dst = dest_reg dst in
      Ld { kind; fp; dst; base = ireg base; site }
    | Insn.St { src; base; site } ->
      let s = any src in
      St { src = slot s; fp = s land 1 = 1; base = ireg base; site }
    | Insn.Chk_a { tag; recovery; site } ->
      let fp, reg = dest_reg tag in
      Chk_a { fp; reg; recovery = target recovery; site }
    | Insn.Invala_e { tag } ->
      let fp, reg = dest_reg tag in
      Invala_e { fp; reg }
    | Insn.Sel { dst; cond; if_true; if_false } ->
      Sel { dst = dest dst; cond = ireg cond; if_true = any if_true;
            if_false = any if_false; lat }
    | Insn.Br { target = t } -> Br { target = target t }
    | Insn.Brc { cond; ifso; ifnot; site } ->
      (* static prediction by direction: backward taken *)
      Brc { cond = ireg cond; ifso = target ifso; ifnot = target ifnot; site;
            predict_taken = ifso < pc }
    | Insn.Call { callee; args; ret } -> (
      let args = Array.of_list (List.map any args) in
      let ret = match ret with Some d -> dest d | None -> -1 in
      match index callee with
      | Some callee -> Call { callee; args; ret; lat }
      | None ->
        fault (Array.to_list args) (fun _ -> merror "call to unknown function %s" callee))
    | Insn.Ret { value } ->
      Ret { value = (match value with Some v -> any v | None -> -1) }
    | Insn.Alloc { dst; nbytes; site } ->
      let dst = ireg dst and s = any nbytes in
      typed ~fp:false [ s ] (fun () -> Alloc { dst; nbytes = slot s; site; lat })
    | Insn.Print { what; as_float } ->
      let s = any what in
      typed ~fp:as_float [ s ] (fun () ->
          if as_float then Print_f { src = slot s } else Print_i { src = slot s })
    | Insn.Nop -> Nop
  in
  let ops =
    Array.mapi
      (fun pc ins ->
        try decode_insn pc ins
        with Undecodable msg -> fault [] (fun _ -> merror "%s" msg))
      code
  in
  let ops = Array.append ops (Array.make (Hashtbl.length sentinels) Nop) in
  Hashtbl.iter (fun t i -> ops.(i) <- Bad_pc { target = t }) sentinels;
  let bundles = Option.value ~default:[||] func.Insn.bundles in
  let cls =
    Array.init (Array.length ops) (fun pc ->
        if pc >= n then 0
        else
          (if Insn.takes_mem code.(pc) then 1 else 0)
          lor (if Insn.takes_fp code.(pc) then 2 else 0)
          lor (if bundles <> [||] && pc mod 3 = 0 then 4 else 0))
  in
  let iinit = Bytes.make ((ni + List.length !ilist) * 8) '\000' in
  List.iteri (fun i v -> set64 iinit ((ni + i) * 8) v) (List.rev !ilist);
  let finit = Array.of_list (List.init nf (fun _ -> 0.0) @ List.rev !flist) in
  let formal (_, d) = try dest d with Undecodable _ -> -1 in
  { name = func.Insn.name; code; ops; cls;
    ports =
      Array.map
        (fun b ->
          let pm, pf, pb = Bundle.template_ports b.Insn.tmpl in
          pm lor (pf lsl 4) lor (pb lsl 8))
        bundles;
    stops = Array.map (fun b -> b.Insn.stop) bundles;
    split_site = Array.mapi (fun b _ -> bundle_site code (3 * b)) bundles;
    iinit; finit; formals = Array.of_list (List.map formal func.Insn.formals);
    nregs = func.Insn.nregs; frame_bytes = func.Insn.frame_bytes }

type t = {
  funcs : fn array;
  main : int; (* index of main, -1 if absent *)
  mem : Memory.t;
  alat : Alat.t;
  cache : Cache.t;
  rse : Rse.t;
  c : Counters.t;
  site_stats : Site_hist.t;
  trace : Trace.sink option;
  timeline : Timeline.t option;
  output : Buffer.t;
  mutable cycle : int;
  mutable group_slots : int; (* instructions issued in the current cycle *)
  mutable group_mem : int;
  mutable group_fp : int;
  (* bundle-wise dispersal state (only driven for bundled functions): how
     many bundles entered the current issue group, the M/F/B ports their
     templates reserve, and whether the last dispersed bundle carried an
     end-of-group stop bit *)
  mutable group_bundles : int;
  mutable group_m_ports : int;
  mutable group_f_ports : int;
  mutable group_b_ports : int;
  mutable pending_stop : bool;
  mutable frame_uid : int;
  mutable fuel : int;
  mutable sp : int;
  (* one-page cache in front of [mem]; [pn] is min_int when empty *)
  mutable pn : int;
  mutable page : Memory.page;
  ret : Bytes.t; (* the returning function's value, as raw bits *)
  mutable ret_float : bool;
}

let create ?(fuel = 200_000_000) ?trace ?timeline (prog : Insn.program) : t =
  let mem = Memory.create () in
  let globals = Hashtbl.create 16 in
  List.iter
    (fun (s, init) ->
      let base =
        Memory.alloc mem ~size:(Srp_ir.Symbol.size_bytes s) ~loc:(Location.Sym s)
      in
      Hashtbl.replace globals (Srp_ir.Symbol.id s) base;
      (match init with
      | Srp_ir.Program.Init_zero -> ()
      | Srp_ir.Program.Init_ints vs ->
        Array.iteri
          (fun i v ->
            Memory.store mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vint v))
          vs
      | Srp_ir.Program.Init_floats vs ->
        Array.iteri
          (fun i v ->
            Memory.store mem (Int64.add base (Int64.of_int (i * 8))) (Value.Vflt v))
          vs))
    prog.Insn.globals;
  let names =
    Array.of_list (List.sort_uniq compare (List.of_seq (Hashtbl.to_seq_keys prog.Insn.funcs)))
  in
  let indices = Hashtbl.create (Array.length names) in
  Array.iteri (fun i name -> Hashtbl.replace indices name i) names;
  let index = Hashtbl.find_opt indices in
  { funcs =
      Array.map
        (fun name ->
          decode ~index ~global:(Hashtbl.find_opt globals) (Hashtbl.find prog.Insn.funcs name))
        names;
    main = Option.value ~default:(-1) (index "main");
    mem; alat = Alat.create (); cache = Cache.create ();
    rse = Rse.create (); c = Counters.create ();
    site_stats = Site_hist.create (); trace; timeline;
    output = Buffer.create 256;
    cycle = 0; group_slots = 0; group_mem = 0; group_fp = 0;
    group_bundles = 0; group_m_ports = 0; group_f_ports = 0;
    group_b_ports = 0; pending_stop = false; frame_uid = 0;
    fuel; sp = Int64.to_int stack_top; ret = Bytes.make 8 '\000';
    pn = min_int; page = Memory.page_of_word mem 0; ret_float = false }

(* --- observability helpers --- *)

(* Per-site event attribution (pfmon stand-in): every ALAT-relevant event
   is charged to the IR site that caused it. *)
let ev m ~site e = Site_hist.record m.site_stats ~site e

(* Trace emission.  Every call site tests [tracing] first, so no field
   list is built without a sink. *)
let[@inline] tracing m = match m.trace with None -> false | Some _ -> true

let tr m kind fields =
  match m.trace with
  | None -> ()
  | Some sink -> Trace.emit sink ~cycle:m.cycle kind fields

let hex a = J.String (Fmt.str "0x%Lx" (Int64.of_int a))

let op_name : Insn.insn -> string = function
  | Insn.Movl _ -> "movl"
  | Insn.Gaddr _ -> "gaddr"
  | Insn.Mov _ -> "mov"
  | Insn.Alu _ -> "alu"
  | Insn.Falu _ -> "falu"
  | Insn.Fcmp _ -> "fcmp"
  | Insn.Itof _ -> "itof"
  | Insn.Ftoi _ -> "ftoi"
  | Insn.Ld { kind = Insn.K_ld; _ } -> "ld"
  | Insn.Ld { kind = Insn.K_ld_a; _ } -> "ld.a"
  | Insn.Ld { kind = Insn.K_ld_sa; _ } -> "ld.sa"
  | Insn.Ld { kind = Insn.K_ld_c { clear = true }; _ } -> "ld.c.clr"
  | Insn.Ld { kind = Insn.K_ld_c { clear = false }; _ } -> "ld.c.nc"
  | Insn.St _ -> "st"
  | Insn.Chk_a _ -> "chk.a"
  | Insn.Invala_e _ -> "invala.e"
  | Insn.Sel _ -> "sel"
  | Insn.Br _ -> "br"
  | Insn.Brc _ -> "brc"
  | Insn.Call _ -> "call"
  | Insn.Ret _ -> "ret"
  | Insn.Alloc _ -> "alloc"
  | Insn.Print _ -> "print"
  | Insn.Nop -> "nop"

(* --- timing helpers --- *)

(* Timeline hook: fires on every cycle advance, read-only — it cannot
   perturb a counter (the on/off differential test holds the machine
   bit-identical either way). *)
let sample m =
  match m.timeline with
  | None -> ()
  | Some tl ->
    Timeline.maybe_sample tl ~cycle:m.cycle
      ~alat_live:(Alat.occupancy m.alat)
      ~rse_dirty:(Rse.dirty m.rse) ~rse_clean:(Rse.clean m.rse)
      ~instrs:m.c.Counters.instrs_retired
      ~l1_misses:m.c.Counters.l1_misses ~l2_misses:m.c.Counters.l2_misses

let new_group m =
  if m.group_slots > 0 then begin
    m.cycle <- m.cycle + 1;
    m.group_slots <- 0;
    m.group_mem <- 0;
    m.group_fp <- 0;
    m.group_bundles <- 0;
    m.group_m_ports <- 0;
    m.group_f_ports <- 0;
    m.group_b_ports <- 0;
    m.pending_stop <- false;
    sample m
  end

let advance_cycles m n =
  if n > 0 then begin
    new_group m;
    m.cycle <- m.cycle + n;
    sample m
  end

(* Stall until [ready]; attribute to data access if [mem_src]. *)
let wait_until m ~ready ~mem_src =
  if ready > m.cycle then begin
    new_group m;
    if ready > m.cycle then begin
      let stall = ready - m.cycle in
      m.cycle <- ready;
      if mem_src then
        m.c.Counters.data_access_cycles <- m.c.Counters.data_access_cycles + stall;
      if tracing m then tr m "stall" [ ("n", J.Int stall); ("mem", J.Bool mem_src) ];
      sample m
    end
  end

(* Bundle-wise dispersal, run whenever execution reaches slot 0 of a
   bundle: up to [Timing.bundles_per_cycle] bundles per cycle, whose
   templates together may reserve at most [m_units] M, [f_units] F and
   [b_units] B units.  A third bundle in the cycle rolls the group over
   naturally; a *second* bundle blocked by the previous bundle's stop bit
   or by a template port conflict ends the group early — a split, the
   stall the flat-stream model never paid. *)
let enter_bundle m fn b =
  let p = fn.ports.(b) in
  let pm = p land 15 and pf = (p lsr 4) land 15 and pb = p lsr 8 in
  if m.group_bundles >= Timing.bundles_per_cycle then new_group m
  else if
    m.group_bundles = 1
    && (m.pending_stop
       || m.group_m_ports + pm > Timing.m_units
       || m.group_f_ports + pf > Timing.f_units
       || m.group_b_ports + pb > Timing.b_units)
  then begin
    let was_stop = m.pending_stop in
    m.c.Counters.split_stalls <- m.c.Counters.split_stalls + 1;
    ev m ~site:fn.split_site.(b) Site_hist.Split_stalls;
    if tracing m then tr m "split" [ ("pc", J.Int (3 * b)); ("stop", J.Bool was_stop) ];
    new_group m
  end;
  m.group_bundles <- m.group_bundles + 1;
  m.group_m_ports <- m.group_m_ports + pm;
  m.group_f_ports <- m.group_f_ports + pf;
  m.group_b_ports <- m.group_b_ports + pb;
  m.pending_stop <- fn.stops.(b);
  m.c.Counters.bundles_retired <- m.c.Counters.bundles_retired + 1

(* Issue the instruction of class [cls], taking a memory / FP unit. *)
let[@inline] issue m cls =
  let mem = cls land 1 <> 0 and fp = cls land 2 <> 0 in
  if
    m.group_slots >= Timing.issue_width
    || (mem && m.group_mem >= Timing.m_units)
    || (fp && m.group_fp >= Timing.f_units)
  then new_group m;
  m.group_slots <- m.group_slots + 1;
  if mem then m.group_mem <- m.group_mem + 1;
  if fp then m.group_fp <- m.group_fp + 1;
  m.c.Counters.instrs_retired <- m.c.Counters.instrs_retired + 1;
  m.fuel <- m.fuel - 1;
  if m.fuel <= 0 then raise Out_of_fuel

(* --- register access --- *)

let need_slow m s ~fp k =
  if s land 1 <> 0 then
    if fp then merror "read of NaT float register f%d" k
    else merror "read of NaT integer register r%d" k;
  wait_until m ~ready:(s asr 2) ~mem_src:(s land 2 <> 0)

(* An operand read: NaT check, then a scoreboard stall until ready. *)
let[@inline] need_i m fr k =
  let s = Array.unsafe_get fr.isb k in
  if s land 1 <> 0 || s asr 2 > m.cycle then need_slow m s ~fp:false k

let[@inline] need_f m fr k =
  let s = Array.unsafe_get fr.fsb k in
  if s land 1 <> 0 || s asr 2 > m.cycle then need_slow m s ~fp:true k

let[@inline] need m fr o = if o land 1 = 0 then need_i m fr (o lsr 1) else need_f m fr (o lsr 1)

let[@inline] sb ~ready ~mem = (ready lsl 2) lor if mem then 2 else 0

let[@inline] set_i fr r v ~ready ~mem =
  set64 fr.iregs (r lsl 3) v;
  Array.unsafe_set fr.isb r (sb ~ready ~mem)

let[@inline] set_f fr r x ~ready ~mem =
  Array.unsafe_set fr.fregs r x;
  Array.unsafe_set fr.fsb r (sb ~ready ~mem)

(* write raw bits to an [any] destination: a float register reinterprets
   them, as a load into it does *)
let[@inline] set_any fr d v ~ready ~mem =
  if d land 1 = 0 then set_i fr (d lsr 1) v ~ready ~mem
  else set_f fr (d lsr 1) (Int64.float_of_bits v) ~ready ~mem

let set_nat fr ~fp r =
  if fp then fr.fsb.(r) <- fr.fsb.(r) lor 1 else fr.isb.(r) <- fr.isb.(r) lor 1

let is_nat fr ~fp r = (if fp then fr.fsb.(r) else fr.isb.(r)) land 1 <> 0

let alat_tag fr ~fp r =
  if fp then Alat.fp_tag ~frame:fr.uid r else Alat.int_tag ~frame:fr.uid r

(* --- ALU semantics (Value.binop's, on raw values) ---

   Each branch writes its own result: a value joined from the branches
   of a match would be boxed. *)

let[@inline] ialu fr (op : Insn.ialu) dst (a : int64) (b : int64) ~ready =
  let mem = false in
  match op with
  | Insn.Aadd -> set_i fr dst (Int64.add a b) ~ready ~mem
  | Insn.Asub -> set_i fr dst (Int64.sub a b) ~ready ~mem
  | Insn.Amul -> set_i fr dst (Int64.mul a b) ~ready ~mem
  | Insn.Adiv ->
    if b = 0L then Value.err "integer division by zero";
    set_i fr dst (Int64.div a b) ~ready ~mem
  | Insn.Arem ->
    if b = 0L then Value.err "integer remainder by zero";
    set_i fr dst (Int64.rem a b) ~ready ~mem
  | Insn.Aand -> set_i fr dst (Int64.logand a b) ~ready ~mem
  | Insn.Aor -> set_i fr dst (Int64.logor a b) ~ready ~mem
  | Insn.Axor -> set_i fr dst (Int64.logxor a b) ~ready ~mem
  | Insn.Ashl -> set_i fr dst (Int64.shift_left a (Int64.to_int b land 63)) ~ready ~mem
  | Insn.Ashr -> set_i fr dst (Int64.shift_right a (Int64.to_int b land 63)) ~ready ~mem
  | Insn.Acmp_eq -> set_i fr dst (if a = b then 1L else 0L) ~ready ~mem
  | Insn.Acmp_ne -> set_i fr dst (if a <> b then 1L else 0L) ~ready ~mem
  | Insn.Acmp_lt -> set_i fr dst (if a < b then 1L else 0L) ~ready ~mem
  | Insn.Acmp_le -> set_i fr dst (if a <= b then 1L else 0L) ~ready ~mem
  | Insn.Acmp_gt -> set_i fr dst (if a > b then 1L else 0L) ~ready ~mem
  | Insn.Acmp_ge -> set_i fr dst (if a >= b then 1L else 0L) ~ready ~mem

let[@inline] falu fr (op : Insn.falu) dst (a : float) (b : float) ~ready =
  let mem = false in
  match op with
  | Insn.FAadd -> set_f fr dst (a +. b) ~ready ~mem
  | Insn.FAsub -> set_f fr dst (a -. b) ~ready ~mem
  | Insn.FAmul -> set_f fr dst (a *. b) ~ready ~mem
  | Insn.FAdiv -> set_f fr dst (a /. b) ~ready ~mem

let[@inline] fcmp (op : Insn.fcmp) (a : float) (b : float) =
  match op with
  | Insn.FCeq -> a = b
  | Insn.FCne -> a <> b
  | Insn.FClt -> a < b
  | Insn.FCle -> a <= b
  | Insn.FCgt -> a > b
  | Insn.FCge -> a >= b

(* Copy [any] operand [src] of [sf] to [any] destination [dst] of [df],
   reinterpreting the bits across files. *)
let[@inline] move sf ~src df ~dst ~ready =
  let mem = false in
  if src land 1 = 0 then begin
    let v = geti sf (src lsr 1) in
    if dst land 1 = 0 then set_i df (dst lsr 1) v ~ready ~mem
    else set_f df (dst lsr 1) (Int64.float_of_bits v) ~ready ~mem
  end
  else begin
    let x = getf sf (src lsr 1) in
    if dst land 1 = 0 then set_i df (dst lsr 1) (Int64.bits_of_float x) ~ready ~mem
    else set_f df (dst lsr 1) x ~ready ~mem
  end

(* --- execution --- *)

let stack_loc = Location.Heap (-1) (* anonymous stack region *)

(* the frame [main]'s (absent) arguments are read from *)
let no_frame =
  { uid = 0; iregs = Bytes.empty; fregs = [||]; isb = [||]; fsb = [||] }

(* --- memory access ---

   Addresses are OCaml ints from here on; an int64 address beyond them
   lies above every region and takes [far_load] or [fault_at]. *)

(* the memory's own error for an access at [a64] *)
let[@inline never] fault_at m a64 =
  ignore (Memory.load_bits m.mem a64);
  merror "wild access at 0x%Lx" a64

(* Memory.page_bits, as a constant the compiler can fold *)
let page_bits = 9
let () = assert (page_bits = Memory.page_bits)
let page_mask = (1 lsl page_bits) - 1

(* The page of word [w] through the one-page cache. *)
let[@inline] page_of m w =
  let pn = w asr page_bits in
  if pn = m.pn then m.page
  else begin
    let p = Memory.page_of_word m.mem w in
    m.pn <- pn;
    m.page <- p;
    p
  end

(* A new region may cover the page the cache holds as unmapped (the
   memory's shared stand-in, which has no live word); every other page
   is updated in place. *)
let region_added m = if m.page.Memory.live = 0 then m.pn <- min_int

let[@inline] mapped m a =
  let w = a asr 3 in
  Array.unsafe_get (page_of m w).Memory.rid (w land page_mask) <> 0

let load m fr ~fp dst a site =
  let lat = Cache.load_latency m.cache m.c ~fp a in
  let w = a asr 3 in
  let p = page_of m w and i = w land page_mask in
  if a land 7 <> 0 || Array.unsafe_get p.Memory.rid i = 0 then
    ignore (Memory.load_bits m.mem (Int64.of_int a)) (* raises *);
  let v = Bytes.get_int64_le p.Memory.data (i lsl 3) in
  m.c.Counters.loads_retired <- m.c.Counters.loads_retired + 1;
  ev m ~site Site_hist.Loads_retired;
  let ready = m.cycle + lat in
  if fp then begin
    m.c.Counters.fp_loads_retired <- m.c.Counters.fp_loads_retired + 1;
    ev m ~site Site_hist.Fp_loads_retired;
    set_f fr dst (Int64.float_of_bits v) ~ready ~mem:true
  end
  else set_i fr dst v ~ready ~mem:true

(* arm an ALAT entry and attribute the insert (and any capacity
   eviction, charged to the evicted entry's arming site) *)
let arm m fr ~fp dst a site =
  m.c.Counters.alat_inserts <- m.c.Counters.alat_inserts + 1;
  ev m ~site Site_hist.Alat_inserts;
  match Alat.insert m.alat (alat_tag fr ~fp dst) a ~site with
  | None -> ()
  | Some victim_site ->
    m.c.Counters.alat_evictions <- m.c.Counters.alat_evictions + 1;
    ev m ~site:victim_site Site_hist.Alat_evictions;
    if tracing m then
      tr m "alat.evict" [ ("site", J.Int site); ("victim", J.Int victim_site) ]

let exec_load m fr (kind : Insn.ld_kind) ~fp dst a site =
  match kind with
  | Insn.K_ld -> load m fr ~fp dst a site
  | Insn.K_ld_a ->
    load m fr ~fp dst a site;
    if tracing m then tr m "alat.arm" [ ("site", J.Int site); ("addr", hex a) ];
    arm m fr ~fp dst a site
  | Insn.K_ld_sa ->
    (* control-speculative: defer faults with NaT, no ALAT entry on fault *)
    if mapped m a then begin
      load m fr ~fp dst a site;
      arm m fr ~fp dst a site
    end
    else begin
      if tracing m then tr m "ld.sa.nat" [ ("site", J.Int site) ];
      (* IA-64: a deferred fault also invalidates any matching ALAT entry,
         so a later ld.c on this register misses and reloads instead of
         validating a stale entry left by a previous occupant of the
         (possibly reused) register *)
      Alat.remove m.alat (alat_tag fr ~fp dst);
      set_nat fr ~fp dst
    end
  | Insn.K_ld_c { clear } ->
    m.c.Counters.checks_retired <- m.c.Counters.checks_retired + 1;
    ev m ~site Site_hist.Checks_retired;
    if Alat.check m.alat (alat_tag fr ~fp dst) ~clear then begin
      (* hit: the register already holds valid data; zero-latency *)
      if is_nat fr ~fp dst then merror "ld.c hit on NaT register"
    end
    else begin
      m.c.Counters.check_failures <- m.c.Counters.check_failures + 1;
      ev m ~site Site_hist.Check_failures;
      if tracing m then tr m "ld.c.miss" [ ("site", J.Int site); ("addr", hex a) ];
      load m fr ~fp dst a site;
      if not clear then arm m fr ~fp dst a site
    end

(* A load at an address beyond OCaml's ints: ld.sa defers it as unmapped
   (-8 is below every region, and the NaT path never reads the address),
   an ld.c that hits reads nothing, and any other load faults. *)
let far_load m fr (kind : Insn.ld_kind) ~fp dst a64 site =
  match kind with
  | Insn.K_ld_sa -> exec_load m fr kind ~fp dst (-8) site
  | Insn.K_ld_c { clear } ->
    m.c.Counters.checks_retired <- m.c.Counters.checks_retired + 1;
    ev m ~site Site_hist.Checks_retired;
    if Alat.check m.alat (alat_tag fr ~fp dst) ~clear then begin
      if is_nat fr ~fp dst then merror "ld.c hit on NaT register"
    end
    else begin
      m.c.Counters.check_failures <- m.c.Counters.check_failures + 1;
      ev m ~site Site_hist.Check_failures;
      if tracing m then
        tr m "ld.c.miss" [ ("site", J.Int site); ("addr", J.String (Fmt.str "0x%Lx" a64)) ];
      fault_at m a64
    end
  | Insn.K_ld | Insn.K_ld_a -> fault_at m a64

(* store register slot [src] to [a] *)
let exec_store m fr ~fp src a site =
  let w = a asr 3 in
  let p = page_of m w and i = w land page_mask in
  if a land 7 = 0 && Array.unsafe_get p.Memory.rid i <> 0 then begin
    if fp then begin
      Bytes.set_int64_le p.Memory.data (i lsl 3) (Int64.bits_of_float (getf fr src));
      Bytes.unsafe_set p.Memory.kind i '\001'
    end
    else begin
      Bytes.set_int64_le p.Memory.data (i lsl 3) (geti fr src);
      Bytes.unsafe_set p.Memory.kind i '\000'
    end
  end
  else Memory.store_bits m.mem (Int64.of_int a) ~float:fp 0L (* raises *);
  Cache.store_touch m.cache a;
  m.c.Counters.stores_retired <- m.c.Counters.stores_retired + 1;
  ev m ~site Site_hist.Stores_retired;
  match Alat.store_probe_sites m.alat a with
  | [] -> ()
  | victims ->
    m.c.Counters.alat_store_invalidations <-
      m.c.Counters.alat_store_invalidations + List.length victims;
    (* the invalidation is charged to the load site whose entry died *)
    List.iter (fun vs -> ev m ~site:vs Site_hist.Alat_store_invalidations) victims;
    if tracing m then
      tr m "alat.inval"
        [ ("site", J.Int site); ("addr", hex a);
          ("victims", J.Arr (List.map (fun s -> J.Int s) victims)) ]

let exec_alloc m n site =
  advance_cycles m Timing.alloc_cycles;
  let size = max 8 n in
  if size > Int64.to_int (Int64.sub heap_limit (Memory.brk m.mem)) - 16 then
    merror "malloc(%d) at site %d: the heap would grow past 0x%Lx, into the stack"
      n site heap_limit;
  let base = Memory.alloc m.mem ~size ~loc:(Location.Heap site) in
  region_added m;
  base

let rec exec_function m (fn : fn) (caller : frame) (args : int array) : bool =
  m.frame_uid <- m.frame_uid + 1;
  let fr =
    { uid = m.frame_uid; iregs = Bytes.copy fn.iinit; fregs = Array.copy fn.finit;
      isb = Array.make (Bytes.length fn.iinit / 8) 0;
      fsb = Array.make (Array.length fn.finit) 0 }
  in
  (* stack frame memory: a descending stack whose addresses are reused
     across calls, as on real hardware — ALAT partial tags of frame slots
     must be stable, not sweep the tag space *)
  let frame_size = ((fn.frame_bytes + 7) / 8 * 8) + 8 in
  let saved_sp = m.sp in
  m.sp <- m.sp - frame_size;
  if m.sp < Int64.to_int heap_limit then
    merror "%s: stack overflow (the stack would grow below 0x%Lx, into the heap)"
      fn.name heap_limit;
  let frame_base =
    Memory.alloc_at m.mem ~base:(Int64.of_int m.sp) ~size:fn.frame_bytes ~loc:stack_loc
  in
  region_added m;
  set64 fr.iregs (Insn.sp * 8) frame_base;
  (* argument arrival: raw bits, reinterpreted by the formal's file *)
  for i = 0 to min (Array.length args) (Array.length fn.formals) - 1 do
    let d = fn.formals.(i) in
    if d < 0 then merror "%s: formal register out of range" fn.name;
    move caller ~src:args.(i) fr ~dst:d ~ready:0
  done;
  (* RSE charge for the new register frame *)
  let spill = Rse.call m.rse m.c ~nregs:fn.nregs in
  if spill > 0 && tracing m then
    tr m "rse.spill" [ ("regs", J.Int spill); ("f", J.String fn.name) ];
  advance_cycles m spill;
  let has_value = exec m fn fr 0 in
  let fill = Rse.ret m.rse m.c in
  if fill > 0 && tracing m then tr m "rse.fill" [ ("regs", J.Int fill) ];
  advance_cycles m fill;
  Alat.purge_frame m.alat ~frame:fr.uid;
  Memory.free m.mem frame_base;
  m.sp <- saved_sp;
  has_value

(* Execute from [pc] until a return; true iff it returned a value (left
   in [m.ret]). *)
and exec m fn fr pc : bool =
  let cls = Array.unsafe_get fn.cls pc in
  (* bundle-wise fetch: crossing into slot 0 disperses the next bundle *)
  if cls land 4 <> 0 then enter_bundle m fn (pc / 3);
  (* per-instruction retire record *)
  if tracing m && pc < Array.length fn.code then
    tr m "i"
      [ ("f", J.String fn.name); ("pc", J.Int pc);
        ("op", J.String (op_name fn.code.(pc))) ];
  match Array.unsafe_get fn.ops pc with
  | Mov_i { dst; src; lat } ->
    need_i m fr src;
    issue m cls;
    set_i fr dst (geti fr src) ~ready:(m.cycle + lat) ~mem:false;
    exec m fn fr (pc + 1)
  | Mov_f { dst; src; lat } ->
    need_f m fr src;
    issue m cls;
    set_f fr dst (getf fr src) ~ready:(m.cycle + lat) ~mem:false;
    exec m fn fr (pc + 1)
  | Mov_x { dst; src; lat } ->
    need m fr src;
    issue m cls;
    move fr ~src fr ~dst ~ready:(m.cycle + lat);
    exec m fn fr (pc + 1)
  | Alu { op; dst; a; b; lat } ->
    need_i m fr a;
    need_i m fr b;
    issue m cls;
    ialu fr op dst (geti fr a) (geti fr b) ~ready:(m.cycle + lat);
    exec m fn fr (pc + 1)
  | Falu { op; dst; a; b; lat } ->
    need_f m fr a;
    need_f m fr b;
    issue m cls;
    falu fr op dst (getf fr a) (getf fr b) ~ready:(m.cycle + lat);
    exec m fn fr (pc + 1)
  | Fcmp { op; dst; a; b; lat } ->
    need_f m fr a;
    need_f m fr b;
    issue m cls;
    set_i fr dst (if fcmp op (getf fr a) (getf fr b) then 1L else 0L)
      ~ready:(m.cycle + lat) ~mem:false;
    exec m fn fr (pc + 1)
  | Itof { dst; src; lat } ->
    need_i m fr src;
    issue m cls;
    set_f fr dst (Int64.to_float (geti fr src)) ~ready:(m.cycle + lat) ~mem:false;
    exec m fn fr (pc + 1)
  | Ftoi { dst; src; lat } ->
    need_f m fr src;
    issue m cls;
    set_i fr dst (Int64.of_float (getf fr src)) ~ready:(m.cycle + lat) ~mem:false;
    exec m fn fr (pc + 1)
  | Ld { kind; fp; dst; base; site } ->
    need_i m fr base;
    (* a check load takes an issue slot but no memory unit (Insn.takes_mem) *)
    issue m cls;
    let a64 = geti fr base in
    let a = Int64.to_int a64 in
    if Int64.of_int a = a64 then exec_load m fr kind ~fp dst a site
    else far_load m fr kind ~fp dst a64 site;
    exec m fn fr (pc + 1)
  | St { src; fp; base; site } ->
    if fp then need_f m fr src else need_i m fr src;
    need_i m fr base;
    issue m cls;
    let a64 = geti fr base in
    let a = Int64.to_int a64 in
    if Int64.of_int a <> a64 then fault_at m a64;
    exec_store m fr ~fp src a site;
    exec m fn fr (pc + 1)
  | Chk_a { fp; reg; recovery; site } ->
    issue m cls;
    m.c.Counters.checks_retired <- m.c.Counters.checks_retired + 1;
    ev m ~site Site_hist.Checks_retired;
    if Alat.check m.alat (alat_tag fr ~fp reg) ~clear:false then exec m fn fr (pc + 1)
    else begin
      (* branch to recovery: a light trap plus pipeline redirect *)
      m.c.Counters.check_failures <- m.c.Counters.check_failures + 1;
      ev m ~site Site_hist.Check_failures;
      if tracing m then
        tr m "chk.a.fail" [ ("site", J.Int site); ("recovery", J.Int recovery) ];
      advance_cycles m Timing.check_recovery_penalty;
      exec m fn fr recovery
    end
  | Invala_e { fp; reg } ->
    issue m cls;
    m.c.Counters.invala_retired <- m.c.Counters.invala_retired + 1;
    Alat.remove m.alat (alat_tag fr ~fp reg);
    exec m fn fr (pc + 1)
  | Sel { dst; cond; if_true; if_false; lat } ->
    need_i m fr cond;
    need m fr if_true;
    need m fr if_false;
    issue m cls;
    let src = if geti fr cond <> 0L then if_true else if_false in
    move fr ~src fr ~dst ~ready:(m.cycle + lat);
    exec m fn fr (pc + 1)
  | Br { target } ->
    issue m cls;
    new_group m; (* taken-branch redirect *)
    exec m fn fr target
  | Brc { cond; ifso; ifnot; site; predict_taken } ->
    need_i m fr cond;
    issue m cls;
    let taken = geti fr cond <> 0L in
    let target = if taken then ifso else ifnot in
    (* Static prediction: backward taken, forward not taken, decided by the
       branch *direction* (ifso relative to the branch pc) — a taken forward
       branch flushes even when ifso = pc + 1.  A correctly predicted branch
       still pays a 1-bubble front-end redirect unless it falls through. *)
    if taken <> predict_taken then begin
      m.c.Counters.branch_mispredicts <- m.c.Counters.branch_mispredicts + 1;
      ev m ~site Site_hist.Branch_mispredicts;
      if tracing m then
        tr m "br.mispredict"
          [ ("site", J.Int site); ("pc", J.Int pc); ("taken", J.Bool taken) ];
      advance_cycles m Timing.mispredict_penalty
    end
    else if target <> pc + 1 then new_group m;
    exec m fn fr target
  | Call { callee; args; ret; lat } ->
    for i = 0 to Array.length args - 1 do
      need m fr (Array.unsafe_get args i)
    done;
    issue m cls;
    new_group m;
    let g = m.funcs.(callee) in
    let has_value = exec_function m g fr args in
    new_group m;
    if ret >= 0 then begin
      if not has_value then merror "%s returned no value" g.name;
      set_any fr ret (get64 m.ret 0) ~ready:(m.cycle + lat) ~mem:false
    end;
    exec m fn fr (pc + 1)
  | Ret { value } ->
    if value >= 0 then need m fr value;
    issue m cls;
    new_group m;
    if value < 0 then false
    else begin
      put_bits m.ret 0 fr value;
      m.ret_float <- value land 1 = 1;
      true
    end
  | Alloc { dst; nbytes; site; lat } ->
    need_i m fr nbytes;
    issue m cls;
    let base = exec_alloc m (Int64.to_int (geti fr nbytes)) site in
    set_i fr dst base ~ready:(m.cycle + lat) ~mem:false;
    exec m fn fr (pc + 1)
  | Print_i { src } ->
    need_i m fr src;
    issue m cls;
    Buffer.add_string m.output (Fmt.str "%Ld\n" (geti fr src));
    exec m fn fr (pc + 1)
  | Print_f { src } ->
    need_f m fr src;
    issue m cls;
    Buffer.add_string m.output (Fmt.str "%.6f\n" (getf fr src));
    exec m fn fr (pc + 1)
  | Nop ->
    issue m cls;
    m.c.Counters.nops_emitted <- m.c.Counters.nops_emitted + 1;
    exec m fn fr (pc + 1)
  | Fault { reads; fail } ->
    Array.iter (need m fr) reads;
    issue m cls;
    fail fr;
    assert false
  | Bad_pc { target } -> merror "%s: pc %d out of range" fn.name target

(* --- entry points --- *)

let run (m : t) : int64 =
  Srp_obs.Stats.time ~pass:"machine" "simulate" @@ fun () ->
  if m.main < 0 then merror "no main function";
  let has_value = exec_function m m.funcs.(m.main) no_frame [||] in
  new_group m;
  m.c.Counters.cycles <- m.cycle;
  (match m.timeline with
  | None -> ()
  | Some tl ->
    Timeline.final tl ~cycle:m.cycle
      ~alat_live:(Alat.occupancy m.alat)
      ~rse_dirty:(Rse.dirty m.rse) ~rse_clean:(Rse.clean m.rse)
      ~instrs:m.c.Counters.instrs_retired
      ~l1_misses:m.c.Counters.l1_misses ~l2_misses:m.c.Counters.l2_misses);
  Srp_obs.Stats.add
    (Srp_obs.Stats.counter ~pass:"machine" "instructions_retired")
    m.c.Counters.instrs_retired;
  if not has_value then 0L
  else if m.ret_float then expected_int (Int64.float_of_bits (get64 m.ret 0))
  else get64 m.ret 0

let output m = Buffer.contents m.output
let counters m = m.c
let site_stats m = m.site_stats

(* Compile-and-run convenience used everywhere downstream. *)
let run_program ?fuel ?trace ?timeline (prog : Insn.program) :
    int64 * string * Counters.t =
  let m = create ?fuel ?trace ?timeline prog in
  let code = run m in
  (code, output m, counters m)
