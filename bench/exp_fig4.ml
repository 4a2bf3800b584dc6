(* Figure 4: the protocol state-transition diagram, read off the model
   checker.  Mc explores every read / write / freeze / thaw / defrost
   interleaving of one page under the paper's policy, driving the live
   Coherent, and records each (state, frozen) transition it takes, named
   by the letter and the probe events it emitted.  The union of the
   2-processor depth-8 and 3-processor depth-5 explorations (the depths
   the mc experiment runs) is printed as edges and DOT.  The checks ask
   that it reaches all four states and holds the paper's ten edges, and
   that exploring deeper (3 processors, depth 6) or wider (4 processors,
   depth 5) adds no edge; the experiment exits 1 if any check misses.
   DESIGN.md classifies the explored edges that the paper does not draw. *)

open Exp_common
module Mc = Platinum_check.Mc
module Cpage = Platinum_core.Cpage

let explored ~nprocs ~depth =
  (Mc.explore ~policy:"platinum" ~nprocs ~npages:1 ~depth ()).Mc.edges

(* The ten edges the paper draws, each as the explored edge it is. *)
let paper_edges =
  [
    ("read miss (zero fill)", "empty --[read: read-fault]--> present1");
    ("write miss (zero fill)", "empty --[write: write-fault]--> modified");
    ("read miss (replicate)", "present1 --[read: read-fault, replicate]--> present+");
    ( "read miss (replicate, restrict writer)",
      "modified --[read: read-fault, restrict, replicate]--> present+" );
    ("write hit upgrade (no invalidation)", "present1 --[write: write-fault]--> modified");
    ("write miss (migrate)", "modified --[write: write-fault, invalidate, migrate]--> modified");
    ("write miss (invalidate replicas)", "present+ --[write: write-fault, invalidate]--> modified");
    ( "read miss on frozen page (remote map)",
      "modified/frozen --[read: read-fault, remote-map]--> modified/frozen" );
    ("defrost daemon thaw", "modified/frozen --[daemon: thaw]--> present1");
    ("further replication (present+)", "present+ --[read: read-fault, replicate]--> present+");
  ]

let run (_ : scale) =
  section "Figure 4 — protocol state-transition diagram (explored from the implementation)";
  let union l = List.sort_uniq compare (List.concat l) in
  let edges = union [ explored ~nprocs:2 ~depth:8; explored ~nprocs:3 ~depth:5 ] in
  Printf.printf "platinum, 1 page, 2 procs to depth 8 and 3 procs to depth 5: %d edges\n"
    (List.length edges);
  List.iter (fun e -> Format.printf "  %a@." Mc.pp_edge e) edges;
  Printf.printf "\nGraphviz:\n%s" (Mc.to_dot edges);
  let reached =
    List.sort_uniq compare (List.concat_map (fun e -> [ fst e.Mc.from; fst e.Mc.to_ ]) edges)
  in
  gate "all four states reachable" (reached = Cpage.[ Empty; Present1; Present_plus; Modified ]);
  let shown = List.map (Format.asprintf "%a" Mc.pp_edge) edges in
  List.iter
    (fun (name, edge) -> gate ("paper edge present: " ^ name) (List.mem edge shown))
    paper_edges;
  let wider = union [ edges; explored ~nprocs:3 ~depth:6; explored ~nprocs:4 ~depth:5 ] in
  gate "closed: 3 procs to depth 6 and 4 procs to depth 5 add no edge" (wider = edges);
  exit_on_missed_gates ~tag:"FIG4_FAIL" "a state, paper-edge or closure gate"
