(* The serve workload's request mix.  A hot set of HPGMG operator
   programs stands for tenants re-running the same solves, so the
   daemon's compile cache is hit; a minority of freshly generated
   programs are each new to the daemon, so each one is a compile miss. *)

open Sf_util
open Snowflake
module Gen = Sf_fuzz.Gen
module Ops = Sf_hpgmg.Operators

type program = { name : string; spec : Gen.spec; reps : int }
type request = Hot of int | Fresh of int

let cc7_group =
  Group.make ~label:"cc_7pt"
    (Ops.boundaries ~grid:"u" @ [ Ops.laplacian_7pt ~out:"res" ~input:"u" ])

(* operator, group, grids it reads, grids it only writes *)
let operators =
  [
    ("gsrb", Ops.gsrb_smooth, [ "u"; "f"; "dinv"; "beta_x"; "beta_y"; "beta_z" ], []);
    ("jacobi", Ops.jacobi_smooth, [ "u"; "f" ], [ "tmp" ]);
    ("cc7", cc7_group, [ "u" ], [ "res" ]);
  ]

let hot_sizes = [ 16; 32 ]
let hot_reps = [ 1; 4 ]

let hpgmg_spec ~label ~group ~inputs ~outputs ~n =
  let shape = Ivec.make 3 (n + 2) in
  let grid gseed gname = { Gen.gname; gshape = shape; gseed } in
  {
    Gen.label;
    seed = 0;
    shape;
    group;
    grids = List.mapi (fun i g -> grid (i + 1) g) inputs @ List.map (grid (-1)) outputs;
    params = [ ("inv_h2", float_of_int (n * n)) ];
  }

let hot_set =
  lazy
    (Array.of_list
       (List.concat_map
          (fun (op, group, inputs, outputs) ->
            List.concat_map
              (fun n ->
                List.map
                  (fun reps ->
                    let name = Printf.sprintf "%s%d_r%d" op n reps in
                    {
                      name;
                      spec = hpgmg_spec ~label:name ~group ~inputs ~outputs ~n;
                      reps;
                    })
                  hot_reps)
              hot_sizes)
          operators))

let hot name = List.find (fun p -> p.name = name) (Array.to_list (Lazy.force hot_set))

let fresh seed =
  let spec = Gen.spec ~seed () in
  { name = Printf.sprintf "fuzz%d" seed; spec; reps = 1 }

(* Fixed composition, seeded order: every block of [block] requests has
   exactly one fresh program at a seeded position, and the hot requests
   walk through seeded permutations of the hot set.  Counts per program
   thus differ by at most one between seeds, so a seed changes the order
   and the generated programs but not the mix. *)
let block = 10

let draw ~seed ~count =
  let st = Random.State.make [| 0x6d6978; seed |] in
  let nhot = Array.length (Lazy.force hot_set) in
  let perm = Array.init nhot Fun.id and pos = ref nhot in
  let next_hot () =
    if !pos = nhot then begin
      for i = nhot - 1 downto 1 do
        let j = Random.State.int st (i + 1) in
        let t = perm.(i) in
        perm.(i) <- perm.(j);
        perm.(j) <- t
      done;
      pos := 0
    end;
    incr pos;
    perm.(!pos - 1)
  in
  let fresh_at = ref (-1) in
  Array.init count (fun i ->
      if i mod block = 0 then fresh_at := i + Random.State.int st block;
      if i = !fresh_at then Fresh (Random.State.bits st) else Hot (next_hot ()))
