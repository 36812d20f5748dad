(** Facade over the points-to analyses: the one object the SSA builder and
    the promotion pass query.  The ORC -O3 baseline composes a "sequence of
    pointer analyses" (paper section 4); inclusion-based (Andersen) plus
    the unsafe type-based refinement gives exactly that composition's
    sets, because the equivalence-class (Steensgaard) solution always
    contains Andersen's and so never narrows it. *)

open Srp_ir

type t

(** Run Andersen's analysis over a whole program. *)
val build : Program.t -> t

(** Locations an indirect access through the temp with cell type [mty] may
    touch (type filter applied). *)
val points_to : t -> func:string -> mty:Mem_ty.t -> Temp.t -> Location.Set.t
