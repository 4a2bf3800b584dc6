(** Access rights on virtual pages.

    The virtual memory system grants [vrights] per binding; the coherent
    memory system installs virtual-to-physical mappings whose rights are
    *potentially more restrictive* in order to force the traps that drive
    the protocol (§2.1). *)

type t =
  | No_access
  | Read_only
  | Read_write

val allows_read : t -> bool
val allows_write : t -> bool

val min : t -> t -> t
(** The more restrictive of the two. *)

val equal : t -> t -> bool
val to_string : t -> string
