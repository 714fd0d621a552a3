(** Per-kernel invocation cache.

    A compiled kernel's run-time setup (bounds validation, constant
    folding, read grouping) depends only on which mesh objects are
    bound to the group's grid names and on the scalar parameter values.
    Solvers call the same kernel on the same meshes thousands of times —
    a V-cycle visits a 4³ level as often as the 128³ one — so backends
    memoise the prepared state under a cheap identity key: the physical
    identities of the bound meshes plus the structural parameter list.
    Rebinding a grid or changing a parameter invalidates the entry
    (single-entry cache: the common pattern is steady bindings). *)

open Sf_mesh

type 'a t

val create : unit -> 'a t

val get :
  'a t ->
  grids:Grids.t ->
  names:string list ->
  params:(string * float) list ->
  (unit -> 'a) ->
  'a
(** [get cache ~grids ~names ~params build] returns the cached value when
    every mesh bound to [names] is physically the same object as at build
    time and [params] is structurally equal; otherwise runs [build] and
    caches its result. *)
