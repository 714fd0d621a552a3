(* The C AST lives in sf_backends, where the native tier prints it too;
   re-exported here for the micro-compilers and their users. *)
include Sf_backends.C_ast
