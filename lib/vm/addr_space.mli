(** Address spaces: lists of bindings of memory objects (with access
    rights) to virtual address ranges (§1.1).

    The VM fault handler lives here: when the coherent memory system finds
    no Cmap entry for a faulting page, the fault falls through to this
    layer, which locates the binding, creates the coherent page if
    necessary, and installs the virtual-to-coherent mapping. *)

exception Address_error of { aspace : int; vpage : int }
(** Access to an unbound virtual page. *)

type t

val create : Platinum_core.Coherent.t -> t

val cmap : t -> Platinum_core.Cmap.t
val page_words : t -> int

val map :
  t ->
  at_page:int ->
  obj:Memobj.t ->
  ?npages:int ->
  rights:Platinum_core.Rights.t ->
  unit ->
  unit
(** Bind the first [npages] pages of [obj] (default the whole object) to
    the virtual range starting at page [at_page].  Overlapping
    an existing binding raises [Invalid_argument]. *)

val map_new_object :
  t -> name:string -> npages:int -> rights:Platinum_core.Rights.t -> Memobj.t * int
(** Convenience: create an object and bind it at the next free virtual
    range.  Returns the object and the base virtual page. *)

val fault : t -> now:Platinum_sim.Time_ns.t -> vpage:int -> int
(** The machine-independent VM fault handler: bind the coherent page
    backing [vpage].  Returns latency.  Raises {!Address_error} when no
    binding covers the page. *)

val resolve : t -> vpage:int -> (Memobj.t * int) option
(** Which (object, page index) backs a virtual page, if any. *)
