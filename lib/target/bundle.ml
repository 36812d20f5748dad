(* Post-regalloc, post-layout instruction bundling (ROADMAP "instruction
   bundler").

   Real IA-64 code is not a flat instruction stream: the front end fetches
   3-syllable *bundles*, each naming a template that routes its slots to
   M/I/F/B units, with stop bits (;;) separating register-dependent
   instruction groups.  This pass packs the resolved, allocated, laid-out
   code of a function into that shape so the machine can fetch bundle-wise
   and charge template-induced splits (Figure 8's cycle counts on real
   hardware include them).

   Syllable classes:
     M  ld / ld.a / ld.sa / ld.c, st, chk.a, invala.e, alloc
     I  movl, addl(gaddr), alu, integer mov/sel
     F  falu, fcmp, setf/fcvt, float mov/sel
     B  br, br.cond, br.call, br.ret, out (runtime call)
   A nop is a wildcard: it satisfies any slot, which is what lets it pad.

   Template subset: MII, MMI, MIB, MMB, MFI, MMF, MBB, BBB; only MII and
   MMI exist in the stopped (;;) encoding, so when a stop must follow a
   template that cannot carry one the packer either marks the previous
   MII/MMI bundle or spends an all-nop MII;; bundle.

   Group rule (mirrored by the machine and the property tests): an
   instruction group ends at a stop bit, and unconditionally after a br,
   br.call or br.ret syllable (the machine always breaks the issue group
   there; a br.cond does *not* end the group on its fall-through path).
   Within one group no syllable may read (RAW) or redefine (WAW) a
   register defined by an earlier syllable of the group — except the
   IA-64 compare-to-branch special case: a br.cond may consume a predicate
   computed by a cmp/fcmp in its own group.

   Every branch / chk.a-recovery target is a leader and every leader
   starts a fresh bundle, so control transfers always land on slot 0. *)

type syl = M | I | F | B

let slots = function
  | Insn.MII -> [| M; I; I |]
  | Insn.MMI -> [| M; M; I |]
  | Insn.MIB -> [| M; I; B |]
  | Insn.MMB -> [| M; M; B |]
  | Insn.MFI -> [| M; F; I |]
  | Insn.MMF -> [| M; M; F |]
  | Insn.MBB -> [| M; B; B |]
  | Insn.BBB -> [| B; B; B |]

(* Closing preference: templates that can still take a stop bit first, so
   a later hazard can often mark the previous bundle instead of spending a
   nop bundle. *)
let all_templates =
  [ Insn.MII; Insn.MMI; Insn.MFI; Insn.MIB; Insn.MMB; Insn.MMF; Insn.MBB;
    Insn.BBB ]

(* The M, F and B units a template reserves at dispersal, one per slot of
   that class (pads reserve their slot's unit too — dispersal routes by
   template, not by what the syllable turns out to do).  Counted once per
   template from [slots]; the machine reads them on every bundle. *)
let template_ports : Insn.template -> int * int * int =
  let count t cls =
    Array.fold_left (fun n s -> if s = cls then n + 1 else n) 0 (slots t)
  in
  let table =
    List.map (fun t -> (t, (count t M, count t F, count t B))) all_templates
  in
  fun t -> List.assq t table

let stop_capable = function Insn.MII | Insn.MMI -> true | _ -> false

(* [None] = nop wildcard, fits any slot. *)
let syllable_of : Insn.insn -> syl option = function
  | Insn.Ld _ | Insn.St _ | Insn.Chk_a _ | Insn.Invala_e _ | Insn.Alloc _ ->
    Some M
  | Insn.Falu _ | Insn.Fcmp _ | Insn.Itof _ | Insn.Ftoi _ -> Some F
  | Insn.Mov { dst = Insn.DFlt _; _ } | Insn.Sel { dst = Insn.DFlt _; _ } ->
    Some F
  | Insn.Movl _ | Insn.Gaddr _ | Insn.Alu _
  | Insn.Mov { dst = Insn.DInt _; _ }
  | Insn.Sel { dst = Insn.DInt _; _ } ->
    Some I
  | Insn.Br _ | Insn.Brc _ | Insn.Call _ | Insn.Ret _ | Insn.Print _ -> Some B
  | Insn.Nop -> None

let fits cls slot = match cls with None -> true | Some c -> c = slot

(* the group breaks unconditionally after these (machine: new_group) *)
let breaks_group = function
  | Insn.Br _ | Insn.Call _ | Insn.Ret _ -> true
  | _ -> false

(* the IA-64 compare-to-branch exception: a br.cond may read a predicate
   computed earlier in its own group *)
let is_cmp = function
  | Insn.Alu { op = Insn.Acmp_eq | Insn.Acmp_ne | Insn.Acmp_lt | Insn.Acmp_le
                    | Insn.Acmp_gt | Insn.Acmp_ge; _ }
  | Insn.Fcmp _ ->
    true
  | _ -> false

(* RAW/WAW of [ins] against the registers defined since the last group
   break; [gdefs_i]/[gdefs_f] also record whether the defining instruction
   was a compare (for the branch exception). *)
let hazard ~gdefs_i ~gdefs_f (ins : Insn.insn) =
  let iu, fu, idf, fdf = Regalloc.uses_defs ins in
  let brc_cond = match ins with Insn.Brc { cond; _ } -> Some cond | _ -> None in
  let raw_i r =
    match Hashtbl.find_opt gdefs_i r with
    | None -> false
    | Some by_cmp -> not (by_cmp && brc_cond = Some r)
  in
  List.exists raw_i iu
  || List.exists (Hashtbl.mem gdefs_f) fu
  || List.exists (Hashtbl.mem gdefs_i) idf
  || List.exists (Hashtbl.mem gdefs_f) fdf

type stats = {
  mutable bundles : int;
  mutable nops_added : int;
  mutable stops : int;
}

(* Pack [code] into bundles.  Returns the padded instruction stream (all
   branch / recovery targets remapped) plus one bundle descriptor per
   three instructions. *)
let run ?stats (code : Insn.insn array) : Insn.insn array * Insn.bundle array
    =
  let n = Array.length code in
  (* --- leaders: every control-transfer target starts a bundle --- *)
  let is_leader = Array.make (max n 1) false in
  if n > 0 then is_leader.(0) <- true;
  let mark t = if t >= 0 && t < n then is_leader.(t) <- true in
  let split_after i = if i + 1 < n then is_leader.(i + 1) <- true in
  Array.iteri
    (fun i ins ->
      match ins with
      | Insn.Br { target } ->
        mark target;
        split_after i
      | Insn.Brc { ifso; ifnot; _ } ->
        mark ifso;
        mark ifnot;
        split_after i
      | Insn.Chk_a { recovery; _ } -> mark recovery
      | Insn.Ret _ -> split_after i
      | _ -> ())
    code;
  (* --- packing state --- *)
  let out_rev = ref [] in
  let out_len = ref 0 in
  (* start-of-bundle position of each original instruction.  Targets are
     leaders and leaders open fresh bundles, so a target's bundle holds
     only pad nops before it — branches land on slot 0 and execute at most
     two nops before the real leader instruction. *)
  let bpos = Array.make (max n 1) (-1) in
  (* emitted bundles, mutable so a hazard can retroactively set the stop
     bit of an already-closed MII/MMI bundle *)
  let bundles = ref [] (* reversed (tmpl, stop ref) *) in
  let cur_rev = ref [] (* current partial bundle, reversed (insn, class) *) in
  let cur_len = ref 0 in
  let gdefs_i : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let gdefs_f : (int, bool) Hashtbl.t = Hashtbl.create 16 in
  let clear_group () =
    Hashtbl.reset gdefs_i;
    Hashtbl.reset gdefs_f
  in
  let emit ins =
    out_rev := ins :: !out_rev;
    incr out_len
  in
  (* a template matches the placed prefix when every placed syllable fits
     its slot *)
  let prefix_ok t =
    let sl = slots t in
    List.for_all (fun (i, cls) -> fits cls sl.(i))
      (List.mapi (fun k (_, cls) -> (!cur_len - 1 - k, cls)) !cur_rev)
  in
  let close ~stop =
    if !cur_len > 0 then begin
      let candidates = if stop then [ Insn.MII; Insn.MMI ] else all_templates in
      let t =
        match List.find_opt prefix_ok candidates with
        | Some t -> t
        | None -> Fmt.invalid_arg "Bundle: no template fits"
      in
      List.iter (fun (ins, _) -> emit ins) (List.rev !cur_rev);
      for _ = !cur_len to 2 do
        emit Insn.Nop;
        match stats with Some s -> s.nops_added <- s.nops_added + 1 | None -> ()
      done;
      bundles := (t, ref stop) :: !bundles;
      (match stats with
      | Some s ->
        s.bundles <- s.bundles + 1;
        if stop then s.stops <- s.stops + 1
      | None -> ());
      cur_rev := [];
      cur_len := 0
    end
  in
  (* can the current partial bundle close as MII/MMI (i.e. carry a stop)? *)
  let closable_with_stop () =
    !cur_len > 0 && (prefix_ok Insn.MII || prefix_ok Insn.MMI)
  in
  (* a stop is needed before the next instruction and the current bundle
     is empty: mark the previous bundle if its encoding allows, otherwise
     spend an all-nop MII;; *)
  let stop_before_fresh () =
    match !bundles with
    | (t, stop) :: _ when stop_capable t && not !stop ->
      stop := true;
      (match stats with Some s -> s.stops <- s.stops + 1 | None -> ())
    | _ ->
      for _ = 0 to 2 do
        emit Insn.Nop;
        match stats with Some s -> s.nops_added <- s.nops_added + 1 | None -> ()
      done;
      bundles := (Insn.MII, ref true) :: !bundles;
      (match stats with
      | Some s ->
        s.bundles <- s.bundles + 1;
        s.stops <- s.stops + 1
      | None -> ())
  in
  for i = 0 to n - 1 do
    let ins = code.(i) in
    if is_leader.(i) then close ~stop:false;
    let cls = syllable_of ins in
    if hazard ~gdefs_i ~gdefs_f ins then begin
      if closable_with_stop () then close ~stop:true
      else begin
        close ~stop:false;
        stop_before_fresh ()
      end;
      clear_group ()
    end;
    (* place, closing (and possibly pad-opening) until a template fits *)
    let placed = ref false in
    while not !placed do
      let slot = !cur_len in
      let ok t = prefix_ok t && fits cls (slots t).(slot) in
      if slot < 3 && List.exists ok all_templates then begin
        bpos.(i) <- !out_len;
        cur_rev := (ins, cls) :: !cur_rev;
        incr cur_len;
        placed := true
      end
      else if !cur_len > 0 then close ~stop:false
      else begin
        (* fresh bundle and still no fit: I/F can't open one — pad slot 0 *)
        cur_rev := [ (Insn.Nop, None) ];
        cur_len := 1;
        match stats with Some s -> s.nops_added <- s.nops_added + 1 | None -> ()
      end
    done;
    if !cur_len = 3 then close ~stop:false;
    (* group bookkeeping *)
    if breaks_group ins then clear_group ()
    else begin
      let _, _, idf, fdf = Regalloc.uses_defs ins in
      let cmp = is_cmp ins in
      List.iter (fun r -> Hashtbl.replace gdefs_i r cmp) idf;
      List.iter (fun r -> Hashtbl.replace gdefs_f r false) fdf
    end
  done;
  close ~stop:false;
  let out = Array.of_list (List.rev !out_rev) in
  let bs =
    Array.of_list
      (List.rev_map (fun (t, stop) -> { Insn.tmpl = t; stop = !stop }) !bundles)
  in
  assert (Array.length out = 3 * Array.length bs);
  (* --- patch control-transfer targets to their new indices --- *)
  let repos t =
    let p = bpos.(t) in
    assert (p >= 0 && p mod 3 = 0);
    p
  in
  let out =
    Array.map
      (fun ins ->
        match ins with
        | Insn.Br { target } -> Insn.Br { target = repos target }
        | Insn.Brc { cond; ifso; ifnot; site } ->
          Insn.Brc { cond; ifso = repos ifso; ifnot = repos ifnot; site }
        | Insn.Chk_a { tag; recovery; site } ->
          Insn.Chk_a { tag; recovery = repos recovery; site }
        | ins -> ins)
      out
  in
  (out, bs)
