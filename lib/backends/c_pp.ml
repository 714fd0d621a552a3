open C_ast

(* Precedence-light printing: parenthesise every compound operand.  The
   output is for a C compiler, not a human diff, so redundant parentheses
   are preferable to a precedence table bug. *)
let rec expr_to_string = function
  | Int i -> string_of_int i
  | Float f ->
      let s = Printf.sprintf "%.17g" f in
      if
        String.contains s '.'
        || String.contains s 'e'
        || String.contains s 'n' (* nan/inf *)
      then s
      else s ^ ".0"
  | Var v -> v
  | Index (arr, e) -> Printf.sprintf "%s[%s]" arr (expr_to_string e)
  | Bin (op, a, b) ->
      Printf.sprintf "%s %s %s" (atom a) op (atom b)
  | Un (op, a) -> Printf.sprintf "%s%s" op (atom a)
  | Call (f, args) ->
      Printf.sprintf "%s(%s)" f
        (String.concat ", " (List.map expr_to_string args))

and atom e =
  match e with
  | Int i when i < 0 -> "(" ^ string_of_int i ^ ")"
  | Int _ | Float _ | Var _ | Index _ | Call _ -> expr_to_string e
  | Bin _ | Un _ -> "(" ^ expr_to_string e ^ ")"

let rec stmt_lines indent s =
  let pad = String.make indent ' ' in
  match s with
  | Decl (ctype, name, None) -> [ Printf.sprintf "%s%s %s;" pad ctype name ]
  | Decl (ctype, name, Some e) ->
      [ Printf.sprintf "%s%s %s = %s;" pad ctype name (expr_to_string e) ]
  | Assign (lhs, rhs) ->
      [
        Printf.sprintf "%s%s = %s;" pad (expr_to_string lhs)
          (expr_to_string rhs);
      ]
  | For { var; from_; below; step; body } ->
      let header =
        Printf.sprintf "%sfor (long %s = %s; %s < %s; %s += %s) {" pad var
          (expr_to_string from_) var (expr_to_string below) var
          (expr_to_string step)
      in
      (header :: List.concat_map (stmt_lines (indent + 2)) body)
      @ [ pad ^ "}" ]
  | If (cond, body) ->
      (Printf.sprintf "%sif (%s) {" pad (expr_to_string cond)
      :: List.concat_map (stmt_lines (indent + 2)) body)
      @ [ pad ^ "}" ]
  | Pragma p -> [ Printf.sprintf "%s#pragma %s" pad p ]
  | Expr_stmt e -> [ Printf.sprintf "%s%s;" pad (expr_to_string e) ]
  | Comment c -> [ Printf.sprintf "%s/* %s */" pad c ]
  | Block body ->
      ((pad ^ "{") :: List.concat_map (stmt_lines (indent + 2)) body)
      @ [ pad ^ "}" ]

let stmt_to_string ?(indent = 0) s = String.concat "\n" (stmt_lines indent s)

let func_to_string f =
  let params =
    String.concat ", "
      (List.map (fun p -> Printf.sprintf "%s %s" p.ctype p.name) f.params)
  in
  let qualifier = if f.qualifier = "" then "" else f.qualifier ^ " " in
  let header = Printf.sprintf "%s%s %s(%s) {" qualifier f.ret f.fname params in
  String.concat "\n"
    ((header :: List.concat_map (stmt_lines 2) f.body) @ [ "}" ])

let file_to_string ?(includes = []) ?(prelude = []) funcs =
  let incl = List.map (Printf.sprintf "#include <%s>") includes in
  String.concat "\n\n"
    (List.filter
       (fun s -> s <> "")
       [
         String.concat "\n" incl;
         String.concat "\n" prelude;
         String.concat "\n\n" (List.map func_to_string funcs);
       ])
  ^ "\n"
