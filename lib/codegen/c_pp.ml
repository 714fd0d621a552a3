(* Re-export of the one C printer (see c_ast.ml). *)
include Sf_backends.C_pp
