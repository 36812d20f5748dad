(* Chi/mu annotation of a function: for every instruction position, the set
   of locations it may define (chi) or use (mu) beyond its explicit
   operands, each with a speculative flag from the [Spec_policy] — the
   speculative SSA form of paper section 3.1, kept as side tables rather
   than rewritten IR.

   - an indirect store adds chi on every location in its points-to set
     (the exactly-matching location, when identifiable, is the store's own
     real definition, not a chi);
   - an indirect load adds mu symmetrically;
   - a call adds chi on the callee's (transitive) mod set and mu on its ref
     set. *)

open Srp_ir
module Location = Srp_alias.Location
module Manager = Srp_alias.Manager
module Modref = Srp_alias.Modref

type eff = { loc : Location.t; spec : bool }

type ann = { chi : eff list; mu : eff list }

let empty = { chi = []; mu = [] }

(* Position of an instruction: (block label, index within block). *)
module Pos = struct
  type t = Label.t * int

  let equal (l1, i1) (l2, i2) = Label.equal l1 l2 && i1 = i2
  let hash (l, i) = (Label.hash l * 8191) + i
end

module Pos_tbl = Hashtbl.Make (Pos)

type t = {
  table : ann Pos_tbl.t;
  func : Func.t;
}

let get t pos = match Pos_tbl.find_opt t.table pos with Some a -> a | None -> empty

(* Compute the annotation tables for [f]. *)
let compute ~(mgr : Manager.t) ~(modref : Modref.t) ~(policy : Spec_policy.t)
    (f : Func.t) : t =
  let fname = Func.name f in
  let table = Pos_tbl.create 64 in
  let points_to mty r = Manager.points_to mgr ~func:fname ~mty r in
  List.iter
    (fun blk ->
      List.iteri
        (fun idx ins ->
          let pos = (Block.label blk, idx) in
          match ins with
          | Instr.Store { addr; mty; site; _ } -> (
            match addr.Ops.base with
            | Ops.Sym _ -> () (* exact definition; no chi *)
            | Ops.Reg r ->
              let pts = points_to mty r in
              let n_targets = Location.Set.cardinal pts in
              let chi =
                Location.Set.fold
                  (fun loc acc ->
                    let spec =
                      not (Spec_policy.store_may_touch policy ~site ~n_targets loc)
                    in
                    { loc; spec } :: acc)
                  pts []
              in
              Pos_tbl.replace table pos { chi; mu = [] })
          | Instr.Load { addr; mty; site; _ } -> (
            match addr.Ops.base with
            | Ops.Sym _ -> ()
            | Ops.Reg r ->
              let pts = points_to mty r in
              let n_targets = Location.Set.cardinal pts in
              let mu =
                Location.Set.fold
                  (fun loc acc ->
                    let spec =
                      not (Spec_policy.store_may_touch policy ~site ~n_targets loc)
                    in
                    { loc; spec } :: acc)
                  pts []
              in
              Pos_tbl.replace table pos { chi = []; mu })
          | Instr.Call { callee; site; _ } ->
            if not (Program.is_builtin callee) then begin
              let mk_effs may_touch set =
                Location.Set.fold
                  (fun loc acc -> { loc; spec = not (may_touch loc) } :: acc)
                  set []
              in
              let touch loc = Spec_policy.call_may_touch policy ~callee ~site loc in
              let chi = mk_effs touch (Modref.mod_of modref callee) in
              let mu = mk_effs touch (Modref.ref_of modref callee) in
              Pos_tbl.replace table pos { chi; mu }
            end
          | Instr.Bin _ | Instr.Un _ | Instr.Mov _ | Instr.Alloc _
          | Instr.Check _ | Instr.Invala _ | Instr.Sw_check _ ->
            ())
        blk.Block.instrs)
    (Func.blocks f);
  { table; func = f }
