(* Facade over the points-to analyses: one object the SSA builder and the
   promotion pass query.  The ORC baseline composes a "sequence of pointer
   analyses" (paper section 4); here Andersen's inclusion-based solution
   plus the type-based refinement is the whole answer.  Steensgaard's
   unification solution always contains Andersen's, so intersecting with
   it (the ORC-style composition) never removes a location — the
   containment test in test_alias.ml pins that on every kernel and every
   generated program:

   - copy  d = s:   Andersen adds pts(s) <= pts(d); Steensgaard unifies
     pts(d) with pts(s), so every target Andersen propagates is already in
     d's Steensgaard class.
   - address-of  d = &x:  Andersen puts x in pts(d); Steensgaard unifies
     pts(d) with x's node, so x is in d's class.
   - load  d = *r:  for every o in pts(r), Andersen adds pts(o) <= pts(d);
     Steensgaard unifies pts(d) with pts(pts(r)), the one class holding
     every such o's targets.
   - store  *r = s:  for every o in pts(r), Andersen adds pts(s) <= pts(o);
     Steensgaard unifies pts(pts(r)) with pts(s), covering every o.
   - call:  each actual flows into its formal as a copy, by the copy case.
   - return:  the returned operand flows into the callee's return node and
     that node into the call's destination, two copies.

   By induction over Andersen's worklist, every target it derives lies in
   the Steensgaard class of the same node. *)

open Srp_ir

type t = Andersen.t

let build (prog : Program.t) : t = Andersen.run prog

(* Locations an indirect access through [tmp] with cell type [mty] may
   touch. *)
let points_to t ~func ~mty tmp : Location.Set.t =
  Type_filter.filter ~access_mty:mty (Andersen.points_to_of_temp t ~func tmp)
