(** The serve workload's request mix, deterministic in the seed. *)

type program = {
  name : string;
  spec : Sf_fuzz.Gen.spec;  (** what is sent, as corpus text *)
  reps : int;  (** applications per request *)
}

type request =
  | Hot of int  (** index into {!hot_set} *)
  | Fresh of int  (** seed of a newly generated [Sf_fuzz.Gen] program *)

val cc7_group : Snowflake.Group.t
(** CC 7-point operator with its boundary stencils: [res = A_cc u]. *)

val hot_set : program array Lazy.t
(** GSRB, Jacobi and CC 7-pt HPGMG operators at 16³ and 32³, each with
    [reps] 1 and 4: twelve programs, inputs seeded deterministically. *)

val hot : string -> program
(** The hot program of that name, e.g. ["gsrb32_r1"]; raises [Not_found]. *)

val fresh : int -> program
(** The generated program for a fresh request's seed ([reps] 1). *)

val draw : seed:int -> count:int -> request array
(** The first [count] requests of the mix for a workload seed.  The
    composition is fixed (one fresh request in every ten, hot requests
    cycling through seeded permutations of {!hot_set}); the seed decides
    the order and the fresh programs. *)
