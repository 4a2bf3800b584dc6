(** The §4.1 analytic model: when does it pay to migrate a page?

    A structure X shared by p processors, sole occupant of a coherent page
    of s words, is operated on with reference density ρ = r/s.  Moving the
    data wins over remote access when (inequality 1)

      C_remote > g(p) * C_migrate + C_local

    with C_local = ρ·s·T_l, C_remote = ρ·s·T_r, C_migrate = s·T_b + F, and
    g(p) the data movements needed per saved remote operation (p/(p−1) for
    strict round-robin).  Rearranged (inequality 2, with the paper's
    rounded Butterfly constants 107 = F/(T_r−T_l) and 0.24 = T_b/(T_r−T_l)):

      s > 107·g / (ρ − 0.24·g).

    Table 1 tabulates the resulting minimum page size. *)

type machine = {
  t_local : float;  (** ns per local word reference (T_l) *)
  t_remote : float;  (** ns per remote word reference (T_r) *)
  t_block : float;  (** ns per block-transferred word (T_b) *)
  fixed_overhead : float;  (** ns of fixed migration overhead (F) *)
}

val butterfly_plus : machine
(** T_l = 320, T_r = 5000, T_b = 1100, F ≈ 0.5 ms — the constants behind
    the paper's 107 and 0.24. *)

val g_round_robin : p:int -> float
(** g(p) = p/(p−1) for strict round-robin access; the worst case is
    g(2) = 2; g(p) → 1 as p grows. *)

val migration_pays :
  machine -> g:float -> rho:float -> page_words:int -> bool
(** Inequality 1, evaluated directly from the machine constants. *)

val min_page_words : machine -> g:float -> rho:float -> int option
(** Smallest page size for which migration always pays; [None] = never
    (the density is too low for any page size). *)

val min_page_words_rounded : g:float -> rho:float -> int option
(** The paper's inequality 2 with its rounded constants (107, 0.24) —
    reproduces Table 1's integers. *)

val table1_gs : float list
(** The axes of Table 1: ρ ∈ {0.17 … 2.0}, g ∈ {0.5, 1, 2}. *)

val table1 : unit -> (float * int option list) list
(** The full Table 1: for each ρ, the S_min per g. *)
