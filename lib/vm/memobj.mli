(** Memory objects (§1.1).

    A memory object is an abstraction of an ordered list of memory pages.
    It has a global name, and a range of its pages may be bound to any
    page-aligned virtual range of any address space — it is the unit of
    data and code sharing between address spaces.  Coherent pages are
    created lazily, on the first VM fault that touches them. *)

type t

val create : Platinum_core.Coherent.t -> name:string -> npages:int -> t

val npages : t -> int

val page : t -> index:int -> Platinum_core.Cpage.t
(** The coherent page at [index], created (empty, zero-fill-on-touch) if
    needed.  Raises [Invalid_argument] when out of range. *)
