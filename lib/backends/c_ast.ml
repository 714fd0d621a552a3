type expr =
  | Int of int
  | Float of float
  | Var of string
  | Index of string * expr
  | Bin of string * expr * expr
  | Un of string * expr
  | Call of string * expr list

type stmt =
  | Decl of string * string * expr option
  | Assign of expr * expr
  | For of {
      var : string;
      from_ : expr;
      below : expr;
      step : expr;
      body : stmt list;
    }
  | If of expr * stmt list
  | Pragma of string
  | Expr_stmt of expr
  | Comment of string
  | Block of stmt list

type param = { ctype : string; name : string }

type func = {
  qualifier : string;
  ret : string;
  fname : string;
  params : param list;
  body : stmt list;
}

let add a b =
  match (a, b) with
  | Int 0, e | e, Int 0 -> e
  | Int x, Int y -> Int (x + y)
  | _ -> Bin ("+", a, b)

let mul a b =
  match (a, b) with
  | Int 0, _ | _, Int 0 -> Int 0
  | Int 1, e | e, Int 1 -> e
  | Int x, Int y -> Int (x * y)
  | _ -> Bin ("*", a, b)

let sum = function [] -> Int 0 | e :: es -> List.fold_left add e es
