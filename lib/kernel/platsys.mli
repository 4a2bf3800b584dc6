(** The PLATINUM coherent memory system packaged as a kernel {!Memsys}
    backend.

    Glue layer: unmapped pages fall through to the VM fault handler of
    the accessing thread's address space; allocation goes to
    {!Platinum_vm.Zone} zones (zone 0 is the root space's default heap);
    translation and data movement are {!Platinum_core.Coherent}.

    Supports the full §1.1 model: multiple address spaces (each with its
    own private heap), globally named memory segments mappable into any
    space (at per-space addresses), and threads bound to one space. *)

type t

val create : Platinum_core.Coherent.t -> Platinum_vm.Addr_space.t -> t
(** [create coh root_aspace] — [root_aspace] becomes address space 0.
    Each space's heap zone is 4096 pages. *)

val memsys : t -> Memsys.t
