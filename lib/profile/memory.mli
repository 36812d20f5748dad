(** Interpreter/simulator memory: a paged store of 64-bit words plus a
    region map resolving any address back to the abstract {!Location.t} it
    falls in.  Pages are materialized on first touch, so a huge region
    costs nothing until one of its words is used.

    The region map is what makes alias *profiling* possible: every dynamic
    indirect access reports which symbol or heap object it actually touched
    (paper section 3.1).  All memory reads are zero-initialized (calloc
    semantics), identically in the interpreter and the machine, which keeps
    differential tests exact. *)

type t

val create : unit -> t

(** Allocate a fresh region (bump allocation); returns its 8-aligned base. *)
val alloc : t -> size:int -> loc:Srp_alias.Location.t -> int64

(** The base the next {!alloc} returns (the heap break). *)
val brk : t -> int64

(** Place a region at a caller-chosen base (the machine's descending stack:
    real stacks reuse addresses, which matters to ALAT partial tags).
    @raise Value.Interp_error on misalignment or overlap. *)
val alloc_at : t -> base:int64 -> size:int -> loc:Srp_alias.Location.t -> int64

(** Remove a region and erase its cells (frame teardown). *)
val free : t -> int64 -> unit

(** The abstract location an address falls in, if any. *)
val location_of_addr : t -> int64 -> Srp_alias.Location.t option

(** @raise Value.Interp_error on wild or unaligned accesses. *)
val load : t -> int64 -> Value.t

(** Typed load: a zero cell read at F64 yields 0.0. *)
val load_typed : t -> int64 -> Srp_ir.Mem_ty.t -> Value.t

val store : t -> int64 -> Value.t -> unit

(** The raw 64-bit contents of a word: an int as is, a float as its bit
    pattern — the machine's view of memory.
    @raise Value.Interp_error on wild or unaligned accesses. *)
val load_bits : t -> int64 -> int64

(** Store raw bits, remembering whether they are a float's (so {!load}
    returns a [Vflt]).
    @raise Value.Interp_error on wild or unaligned accesses. *)
val store_bits : t -> int64 -> float:bool -> int64 -> unit

(** {1 Pages}

    The machine reads and writes words through pages directly, behind
    its own one-page cache.  Word [w] (a byte address [asr 3]) is index
    [w land (2{^page_bits} - 1)] of [page_of_word t w]; a zero [rid]
    there means no region covers it, and any access to it must go through
    {!load_bits} / {!store_bits} for their error.  Pages are updated in
    place, except the shared all-unmapped stand-in ([live = 0]): a cache
    holding it is stale after an {!alloc} or {!alloc_at}.  Blank pages
    are reclaimed only while fetching a page, so a cache that refetches
    through [page_of_word] stays valid. *)

type page = private {
  data : Bytes.t;  (** the words' raw bits, little-endian *)
  kind : Bytes.t;  (** per word: ['\001'] if the word holds a float *)
  rid : int array;  (** per word: region id, 0 = none *)
  mutable live : int;  (** words with a region *)
}

val page_bits : int

(** The page holding word [w]; a shared all-unmapped page when no region
    touches it. *)
val page_of_word : t -> int -> page
