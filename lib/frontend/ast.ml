(* MiniC abstract syntax.

   MiniC is the C subset the reproduction compiles: 64-bit [int] and
   [double], pointers, fixed-size arrays, structs, address-of, malloc,
   functions, if/while/for, and the usual expression operators.  It is rich
   enough to express every code shape in the paper (Figures 1-4) and the
   SPEC-like kernels, while keeping the front end small. *)

type pos = { line : int; col : int }

let no_pos = { line = 0; col = 0 }

type ty =
  | Tint
  | Tdouble
  | Tptr of ty
  | Tarr of ty * int
  | Tstruct of string
  | Tvoid
  | Tany_ptr (* type of malloc(..) and of the null literal in ptr context *)

let rec pp_ty ppf = function
  | Tint -> Fmt.string ppf "int"
  | Tdouble -> Fmt.string ppf "double"
  | Tptr t -> Fmt.pf ppf "%a*" pp_ty t
  | Tarr (t, n) -> Fmt.pf ppf "%a[%d]" pp_ty t n
  | Tstruct s -> Fmt.pf ppf "struct %s" s
  | Tvoid -> Fmt.string ppf "void"
  | Tany_ptr -> Fmt.string ppf "void*"

type binop =
  | Badd | Bsub | Bmul | Bdiv | Brem
  | Band | Bor | Bxor | Bshl | Bshr
  | Beq | Bne | Blt | Ble | Bgt | Bge
  | Bland | Blor (* short-circuit *)

type unop = Uneg | Unot (* logical ! *) | Ubnot (* bitwise ~ *)

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Eint of int64
  | Efloat of float
  | Eident of string
  | Ebin of binop * expr * expr
  | Eun of unop * expr
  | Ederef of expr (* *e *)
  | Eaddr of expr (* &lvalue *)
  | Eindex of expr * expr (* e[i] *)
  | Efield of expr * string (* e.f *)
  | Earrow of expr * string (* e->f *)
  | Ecall of string * expr list
  | Econd of expr * expr * expr (* c ? a : b *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Sdecl of ty * string * expr option
  | Sassign of expr * expr (* lvalue = rvalue *)
  | Sop_assign of binop * expr * expr (* lvalue op= rvalue *)
  | Sexpr of expr
  | Sif of expr * stmt list * stmt list
  | Swhile of expr * stmt list
  | Sdo of stmt list * expr (* do { .. } while (e); *)
  | Sfor of stmt option * expr option * stmt option * stmt list
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sblock of stmt list

type func_decl = {
  fname : string;
  fret : ty;
  fformals : (ty * string) list;
  fbody : stmt list;
  fpos : pos;
}

type global_decl = {
  gty : ty;
  gname : string;
  ginit : init option;
  gpos : pos;
}

and init =
  | Iscalar of expr
  | Ilist of expr list (* array initializer *)

type struct_decl = {
  sname : string;
  sfields : (ty * string) list;
  spos : pos;
}

type decl =
  | Dstruct of struct_decl
  | Dglobal of global_decl
  | Dfunc of func_decl

type program = decl list
