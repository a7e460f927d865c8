(* One pass of one end-to-end benchmark workload, in a fresh process.

     gate.exe --workload NAME --seed N [--traced] [--setup-only] [--leaves]

   The pass builds every model, encoding, formula and data set of the
   workload (set-up), then issues the workload's queries back to back
   at the library's default configuration (closed loop, one client),
   with the caches as cold as a fresh CLI invocation leaves them.
   Every conclusive verdict is checked in-process against the verdict
   pinned from EXPERIMENTS.md; a wrong one makes the pass exit 3.
   [Unknown] answers and exceptions are counted as failed queries.

   The last stdout line is one JSON record: the wall clock of the first
   query (so the caller can measure set-up from its spawn time), the
   wall time of the queries, and per query its verdict, rigor and its
   detailed answer (the witness; a digest of the leaves for pavings).  With [--traced]
   telemetry metrics are on and the record carries the per-layer
   ledger read from [Telemetry.Metrics] plus the spans this file wraps
   around its own public calls.  [--leaves] adds the consistent and
   inconsistent leaves of every paving (the ablation diagnostic compares
   them across configurations).  [benchmark/run.py] drives the passes;
   only the public functions of [lib/] are called here. *)

module I = Interval.Ia
module Box = Interval.Box
module E = Reach.Encoding
module C = Reach.Checker
module B = Synth.Biopsy

(* ------------------------------------------------------------------ *)
(* Queries and answers                                                 *)
(* ------------------------------------------------------------------ *)

(* How a conclusive verdict is backed: a validated tube, an ICP proof or
   a certified witness ([Rigorous]); a sampled ensemble bracket or an
   uncertified witness ([Sampled]); or an API that does not say
   ([Hidden], left out of the rigor denominator). *)
type rigor = Rigorous | Sampled | Hidden

type answer = {
  verdict : string;  (** compared with the pinned expectation *)
  rigor : rigor;
  detail : string;  (** exact answer; the traced pass must reproduce it *)
  undecided : float option;  (** pavings: undecided / box volume *)
  leaves : (Box.t list * Box.t list) option;  (** pavings: consistent, inconsistent *)
}

type query = { name : string; expect : string; run : unit -> (answer, string) result }

let answer ?(rigor = Rigorous) ?undecided ?leaves ?detail verdict =
  Ok { verdict; rigor; detail = Option.value detail ~default:verdict; undecided; leaves }

let span name = Telemetry.Span.probe ("gate." ^ name)
let sp_therapy = span "core.therapy"
let sp_biopsy = span "synth.biopsy"
let sp_cegis = span "lyapunov.cegis"
let m_cegis_iterations = Telemetry.Counter.make "gate.lyapunov.cegis.iterations"

(* ------------------------------------------------------------------ *)
(* Reachability (cardiac, therapy)                                     *)
(* ------------------------------------------------------------------ *)

let env_detail l = String.concat "," (List.map (fun (k, v) -> Printf.sprintf "%s=%h" k v) l)

let witness_detail (w : C.witness) =
  Printf.sprintf "%s|%s|%s|%h|%b" (String.concat ">" w.path) (env_detail w.params)
    (env_detail w.init) w.reach_time w.certified

let reach_answer = function
  | C.Unsat { rigorous } -> answer ~rigor:(if rigorous then Rigorous else Sampled) "unsat"
  | C.Delta_sat w ->
      answer ~rigor:(if w.certified then Rigorous else Sampled)
        ~detail:(witness_detail w) "delta-sat"
  | C.Unknown why -> Error why

let reach name expect enc = { name; expect; run = (fun () -> reach_answer (C.check enc)) }

(* [Core.Robustness.classify] maps [Unsat _] to [Robust] and drops the
   rigor flag, so the E5 sweep builds the encoding [classify] builds and
   maps the checker's answer the same way, keeping the flag. *)
let robustness name expect enc =
  let run () =
    match C.check enc with
    | C.Unsat { rigorous } -> answer ~rigor:(if rigorous then Rigorous else Sampled) "robust"
    | C.Delta_sat w when w.certified -> answer ~detail:(witness_detail w) "excitable"
    | C.Delta_sat _ -> Error "borderline (uncertified delta-sat)"
    | C.Unknown why -> Error why
  in
  { name; expect; run }

let cardiac ~jobs:_ ~seed:_ =
  let fk = Biomodels.Fenton_karma.automaton () in
  let dome = Biomodels.Fenton_karma.spike_and_dome_goal () in
  let e1 =
    List.map
      (fun k ->
        reach (Printf.sprintf "E1 k=%d" k) "unsat"
          (E.create ~min_jumps:2 ~goal:dome ~k ~time_bound:400.0 fk))
      [ 2; 3; 4 ]
  in
  let bcf = Biomodels.Bueno_cherry_fenton.automaton ~free_params:[ "tau_so1" ] () in
  let early = Biomodels.Bueno_cherry_fenton.early_repolarization_goal () in
  let e2 =
    List.map
      (fun (lo, hi, expect) ->
        reach (Printf.sprintf "E2 tau_so1=[%g,%g]" lo hi) expect
          (E.create
             ~param_box:(Box.of_list [ ("tau_so1", I.make lo hi) ])
             ~goal:early ~k:3 ~time_bound:150.0 bcf))
      [ (5.0, 45.0, "delta-sat"); (5.0, 15.0, "delta-sat"); (25.0, 45.0, "unsat") ]
  in
  let excitation = Biomodels.Bueno_cherry_fenton.excitation_goal () in
  let e5 =
    List.init 8 (fun i ->
        let lo = 0.05 *. float_of_int i and hi = 0.05 *. float_of_int (i + 1) in
        let automaton =
          Biomodels.Bueno_cherry_fenton.automaton ~stimulus:lo ~stimulus_width:(hi -. lo) ()
        in
        robustness
          (Printf.sprintf "E5 stimulus=[%.2f,%.2f]" lo hi)
          (if i < 6 then "robust" else "excitable")
          (E.create ~goal:excitation ~k:3 ~time_bound:100.0 automaton))
  in
  e1 @ e2 @ e5

let therapy ~jobs:_ ~seed:_ =
  let prostate = Biomodels.Prostate.automaton () in
  let relapse = Biomodels.Prostate.relapse_goal ~level:1.0 () in
  let ias =
    E.create
      ~param_box:(Box.of_list [ ("r0", I.make 2.0 6.0); ("r1", I.make 8.0 14.0) ])
      ~goal:relapse ~k:6 ~time_bound:400.0 prostate
  in
  let continuous =
    E.create ~goal:relapse ~k:2 ~time_bound:1500.0
      (Hybrid.Automaton.bind_params [ ("r0", -1.0); ("r1", 1e6) ] prostate)
  in
  let tbi = Biomodels.Tbi.automaton () in
  let param_box = Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ] in
  let recovery = Biomodels.Tbi.recovery_goal () and harm = Biomodels.Tbi.death_goal () in
  (* [Core.Therapy] does not expose whether its verdicts rest on tubes
     or brackets: E4 stays out of the rigor denominator. *)
  let e4 () =
    match
      Telemetry.Span.with_ sp_therapy (fun () ->
          Core.Therapy.optimize ~param_box ~recovery ~harm ~max_jumps:4 ~time_bound:40.0 tbi)
    with
    | Core.Therapy.Plan p when p.safety_checked ->
        answer ~rigor:Hidden
          ~detail:(Printf.sprintf "%s|%s|%h" (String.concat ">" p.path)
                     (env_detail p.thresholds) p.reach_time)
          (String.concat "->" p.path)
    | Core.Therapy.Plan _ -> Error "plan without a safety check"
    | Core.Therapy.No_plan why -> Error why
  in
  [ reach "E3 IAS r0=[2,6] r1=[8,14]" "unsat" ias;
    reach "E3 continuous" "delta-sat" continuous;
    { name = "E4 TBI plan"; expect = "m0->mA->mB->m0"; run = e4 } ]

(* ------------------------------------------------------------------ *)
(* Calibration (BioPSy)                                                *)
(* ------------------------------------------------------------------ *)

let overlap a b =
  Box.fold
    (fun v i acc ->
      acc
      &&
      let j = Box.find v b in
      Float.min (I.hi i) (I.hi j) > Float.max (I.lo i) (I.lo j))
    a true

(* The leaves lie in the box, have pairwise disjoint interiors and fill
   its volume: a partition up to boundaries. *)
let is_partition (prob : B.problem) (r : B.result) =
  let leaves = Array.of_list (r.consistent @ r.inconsistent @ r.undecided) in
  let total = Box.volume prob.param_box in
  let sum = Array.fold_left (fun acc b -> acc +. Box.volume b) 0.0 leaves in
  let disjoint = ref true in
  Array.iteri
    (fun i a ->
      for j = i + 1 to Array.length leaves - 1 do
        if !disjoint && overlap a leaves.(j) then disjoint := false
      done)
    leaves;
  Array.for_all (fun b -> Box.subset b prob.param_box) leaves
  && !disjoint
  && Float.abs (sum -. total) <= 1e-9 *. total

let box_key b =
  String.concat ","
    (List.map (fun (v, i) -> Printf.sprintf "%s=%h:%h" v (I.lo i) (I.hi i)) (Box.to_list b))

(* Order-free digest of a paving (jobs > 1 only permutes the leaves). *)
let paving_digest (r : B.result) =
  let cls tag l = List.map (fun b -> tag ^ box_key b) l in
  cls "c" r.consistent @ cls "i" r.inconsistent @ cls "u" r.undecided
  |> List.sort compare |> String.concat ";" |> Digest.string |> Digest.to_hex

let undecided_share prob r =
  let _, _, vu = B.volumes prob r in
  vu /. Box.volume prob.B.param_box

(* One paving query: the answer is "partition" when the paving
   partitions the box and never rejects the ground truth (data drawn
   from [truth] with noise inside the bands, so a sound paving cannot
   call it inconsistent). *)
let paving ?(after = fun _ -> None) name config prob truth =
  let run () =
    let r =
      Telemetry.Span.with_ sp_biopsy (fun () -> B.synthesize ~config prob)
    in
    let verdict =
      if not (is_partition prob r) then "not a partition"
      else if List.exists (Box.contains_env truth) r.inconsistent then "truth rejected"
      else Option.value (after r) ~default:"partition"
    in
    answer ~undecided:(undecided_share prob r) ~leaves:(r.consistent, r.inconsistent)
      ~detail:(paving_digest r) verdict
  in
  { name; expect = "partition"; run }

let calibrate ~jobs ~seed =
  let sir = Biomodels.Classics.sir in
  let truth = [ ("beta", 1.25); ("gamma", 0.3) ] in
  let init = List.map (fun v -> (v, 0.1)) (Ode.System.vars sir) in
  let data =
    Synth.Data.synthetic ~rng:(Random.State.make [| seed |]) ~sys:sir ~params:truth ~init
      ~t_end:10.0 ~observed:(Ode.System.vars sir) ~n:8 ~noise:0.02 ~tolerance:0.2
  in
  let sir_prob =
    B.problem ~sys:sir
      ~param_box:(Box.of_list [ ("beta", I.make 0.5 2.0); ("gamma", I.make 0.1 0.5) ])
      ~init:(Box.of_list (List.map (fun (v, x) -> (v, I.of_float x)) init))
      ~data
  in
  let config = { B.default_config with jobs } in
  let decay = Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ] in
  let decay_problem data =
    B.problem ~sys:decay
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data
  in
  let e7 =
    decay_problem
      (List.map
         (fun t -> Synth.Data.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:0.08)
         [ 0.25; 0.5; 0.75; 1.0 ])
  in
  (* The undecided volume must shrink as ε shrinks along the sweep. *)
  let last_undecided = ref infinity in
  let shrinking r =
    let u = undecided_share e7 r in
    let grew = u > !last_undecided in
    last_undecided := u;
    if grew then Some "undecided volume grew" else None
  in
  let sweep =
    List.map
      (fun epsilon ->
        paving ~after:shrinking
          (Printf.sprintf "E7 eps=%g" epsilon)
          { config with epsilon } e7 [ ("k", 1.0) ])
      [ 0.2; 0.1; 0.05; 0.02 ]
  in
  let growth =
    decay_problem
      [ Synth.Data.point ~time:0.5 ~var:"x" ~value:2.0 ~tolerance:0.2;
        Synth.Data.point ~time:1.0 ~var:"x" ~value:4.0 ~tolerance:0.2 ]
  in
  let falsify () =
    let r = Telemetry.Span.with_ sp_biopsy (fun () -> B.synthesize ~config growth) in
    answer ~undecided:(undecided_share growth r) ~leaves:(r.consistent, r.inconsistent)
      ~detail:(paving_digest r)
      (if B.falsified r then "falsified" else "not falsified")
  in
  (paving "sir synthesis" config sir_prob truth :: sweep)
  @ [ { name = "E7 falsification"; expect = "falsified"; run = falsify } ]

(* ------------------------------------------------------------------ *)
(* δ-decisions (decide)                                                *)
(* ------------------------------------------------------------------ *)

let decide_answer = function
  | Icp.Solver.Unsat -> answer "unsat"
  | Icp.Solver.Delta_sat w ->
      answer ~rigor:(if w.certified then Rigorous else Sampled) "delta-sat"
  | Icp.Solver.Unknown why -> Error why

let decide ~jobs ~seed:_ =
  let solve name expect config f box =
    let config = { config with Icp.Solver.jobs } in
    { name; expect; run = (fun () -> decide_answer (Icp.Solver.decide ~config f box)) }
  in
  let lyapunov (name, sys) =
    let cegis =
      let d = Lyapunov.Cegis.default_config in
      { d with
        exists_solver = { d.exists_solver with jobs };
        forall_solver = { d.forall_solver with jobs } }
    in
    let prob =
      Lyapunov.Cegis.problem
        ~region:(Biomodels.Classics.unit_box (Ode.System.vars sys))
        ~template:(Lyapunov.Template.quadratic (Ode.System.vars sys))
        sys
    in
    let run () =
      match
        Telemetry.Span.with_ sp_cegis (fun () -> Lyapunov.Cegis.synthesize ~config:cegis prob)
      with
      | Lyapunov.Cegis.Proved c ->
          (* Proved means the ∀-step refuted both violations by ICP. *)
          Telemetry.Counter.add m_cegis_iterations c.iterations;
          answer ~detail:(Printf.sprintf "proved in %d" c.iterations) "proved"
      | o -> Error (Fmt.str "%a" Lyapunov.Cegis.pp_outcome o)
    in
    { name = "E6 " ^ name; expect = "proved"; run }
  in
  let e6 =
    List.map lyapunov
      [ ("damped rotation", Biomodels.Classics.damped_rotation);
        ("damped nonlinear", Biomodels.Classics.damped_nonlinear);
        ("proofreading chain", Biomodels.Classics.proofreading);
        ("ERK cascade", Biomodels.Classics.erk_cascade) ]
  in
  let d = Icp.Solver.default_config in
  let tangency = Expr.Parse.formula "x^2 + y^2 = 1 and x*y = 1/2" in
  let tangency_box = Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ] in
  let delta_sweep =
    List.map
      (fun delta ->
        solve (Printf.sprintf "S1 delta=%.0e" delta) "delta-sat"
          { d with delta; epsilon = delta /. 10.0 } tangency tangency_box)
      [ 1e-1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6 ]
  in
  let plane n =
    let vars = List.init n (Printf.sprintf "x%d") in
    let f =
      Expr.Parse.formula
        (Printf.sprintf "%s = 1 and %s >= %.17g"
           (String.concat " + " (List.map (fun v -> v ^ "^2") vars))
           (String.concat " + " vars)
           (0.98 *. Float.sqrt (float_of_int n)))
    in
    solve (Printf.sprintf "S1 dim=%d" n) "delta-sat"
      { d with delta = 1e-3; epsilon = 1e-4 } f
      (Box.of_list (List.map (fun v -> (v, I.make (-2.0) 2.0)) vars))
  in
  (* max xyz on the unit sphere is 3^(-3/2) ≈ 0.192450: the whole box
     must be refuted. *)
  let sphere =
    solve "P1 near-tangency sphere" "unsat"
      { d with delta = 1e-7; epsilon = 1e-8; max_boxes = 10_000_000 }
      (Expr.Parse.formula "x^2 + y^2 + z^2 = 1 and x*y*z = 1925/10000")
      (Box.of_list [ ("x", I.make 0.0 1.0); ("y", I.make 0.0 1.0); ("z", I.make 0.0 1.0) ])
  in
  e6 @ delta_sweep @ List.init 5 (fun i -> plane (i + 1)) @ [ sphere ]

(* Worker domains per workload: the reachability workloads run at the
   checker's default (sequential) configuration, the paving and decide
   workloads on both cores of the reference machine. *)
let workloads =
  [ ("cardiac", (1, cardiac)); ("therapy", (1, therapy)); ("calibrate", (2, calibrate));
    ("decide", (2, decide)) ]

(* ------------------------------------------------------------------ *)
(* Per-layer ledger                                                    *)
(* ------------------------------------------------------------------ *)

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

(* Read after the queries of a traced pass.  Names are the ledger's
   (layer.module.metric), sources the registry's. *)
let ledger ~wall ~jobs =
  let counters = Telemetry.Metrics.counters () and hists = Telemetry.Metrics.histograms () in
  let c n = Option.value (List.assoc_opt n counters) ~default:0 in
  let h n =
    match List.assoc_opt n hists with
    | Some s -> (s.Telemetry.Histogram.total, s.Telemetry.Histogram.count)
    | None -> (0, 0)
  in
  let ns n = float_of_int (fst (h n)) and calls n = float_of_int (snd (h n)) in
  let hit_rate g =
    let hits = c ("cache." ^ g ^ ".hits") + c ("cache." ^ g ^ ".subsumed") in
    ratio hits (hits + c ("cache." ^ g ^ ".misses"))
  in
  let f = float_of_int in
  let boxes = c "icp.decide.boxes" + c "icp.pave.boxes" in
  let flows = c "ode.flows" in
  [ ("interval.tm.ns", ns "icp.tm"); ("interval.tm.calls", calls "icp.tm");
    ("interval.tm.refutations", f (c "tm.refutations"));
    ("interval.affine.ns", ns "icp.affine"); ("interval.affine.calls", calls "icp.affine");
    ("interval.affine.refutations", f (c "affine.refutations"));
    ("ode.enclosure.flow_ns", ns "ode.flow"); ("ode.enclosure.flows", f flows);
    ("ode.enclosure.steps", f (c "ode.steps"));
    ("ode.enclosure.picard_iters", f (c "ode.picard_iters"));
    ("ode.enclosure.step_rejections", f (c "ode.step_rejections"));
    ("ode.enclosure.kept_frac",
     if flows = 0 then 0.0 else 1.0 -. ratio (c "reach.fallback_brackets") flows);
    ("reach.checker.ns", ns "reach.check"); ("reach.checker.paths", f (c "reach.paths"));
    ("reach.checker.segments", f (c "reach.segments"));
    ("reach.checker.fallback_brackets", f (c "reach.fallback_brackets"));
    ("cache.reach-seg.hit_rate", hit_rate "reach-seg"); ("cache.flow.hit_rate", hit_rate "flow");
    ("cache.hc4.hit_rate", hit_rate "hc4"); ("cache.icp-refuted.hit_rate", hit_rate "icp-refuted");
    ("cache.biopsy.hit_rate", hit_rate "biopsy");
    ("icp.solver.ns", ns "icp.decide" +. ns "icp.pave"); ("icp.solver.boxes", f boxes);
    ("icp.solver.prune_rate", ratio (c "icp.decide.prunings" + c "icp.pave.prunings") boxes);
    ("icp.contractor.hc4_ns", ns "icp.hc4"); ("icp.deriv.newton_ns", ns "icp.newton");
    ("icp.deriv.newton_yield",
     ratio (c "icp.newton.prunings" + c "icp.newton.contractions") (snd (h "icp.newton")));
    ("parallel.pool.util", 1.0 -. (f (c "pool.idle_ns") /. (wall *. 1e9 *. f jobs)));
    ("parallel.pool.steals", f (c "pool.steals"));
    ("synth.biopsy.ns", ns "gate.synth.biopsy"); ("synth.biopsy.boxes", f (c "biopsy.boxes"));
    ("lyapunov.cegis.ns", ns "gate.lyapunov.cegis");
    ("lyapunov.cegis.iterations", f (c "gate.lyapunov.cegis.iterations"));
    ("core.therapy.ns", ns "gate.core.therapy") ]

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let json_str s =
  let b = Buffer.create (String.length s + 2) in
  Telemetry.Json.escape b s;
  Buffer.contents b

let json_num x = if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let boxes_json l =
  let interval (v, i) = Printf.sprintf "[%s,%s,%s]" (json_str v) (json_num (I.lo i)) (json_num (I.hi i)) in
  "[" ^ String.concat ","
    (List.map (fun b -> "[" ^ String.concat "," (List.map interval (Box.to_list b)) ^ "]") l)
  ^ "]"

let rigor_name = function Rigorous -> "rigorous" | Sampled -> "sampled" | Hidden -> "hidden"

let usage () =
  prerr_endline
    "usage: gate.exe --workload (cardiac|therapy|calibrate|decide) --seed N \
     [--traced] [--setup-only] [--leaves]";
  exit 2

let () =
  let workload = ref "" and seed = ref 0 and traced = ref false in
  let setup_only = ref false and with_leaves = ref false in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N seed of the generated inputs");
      ("--traced", Arg.Set traced, " record the per-layer ledger");
      ("--setup-only", Arg.Set setup_only, " stop before the first query");
      ("--leaves", Arg.Set with_leaves, " print the leaves of every paving") ]
    (fun _ -> usage ())
    "gate.exe: one pass of an end-to-end benchmark workload";
  let jobs, build = match List.assoc_opt !workload workloads with Some w -> w | None -> usage () in
  if !traced then Telemetry.set_metrics true;
  let queries = build ~jobs ~seed:!seed in
  let t_first = Unix.gettimeofday () in
  let results =
    if !setup_only then []
    else begin
      Telemetry.reset ();
      List.map
        (fun q ->
          let t0 = Unix.gettimeofday () in
          let r = try q.run () with e -> Error ("exception: " ^ Printexc.to_string e) in
          (q, r, Unix.gettimeofday () -. t0))
        queries
    end
  in
  let wall = Unix.gettimeofday () -. t_first in
  let wrong =
    List.filter_map
      (function q, Ok a, _ when a.verdict <> q.expect -> Some q.name | _ -> None)
      results
  in
  let query_json (q, r, seconds) =
    let fields =
      match r with
      | Ok a ->
          [ ("verdict", json_str a.verdict); ("rigor", json_str (rigor_name a.rigor));
            ("detail", json_str a.detail);
            ("undecided", match a.undecided with Some u -> json_num u | None -> "null") ]
          @ (match a.leaves with
            | Some (c, i) when !with_leaves ->
                [ ("consistent", boxes_json c); ("inconsistent", boxes_json i) ]
            | _ -> [])
      | Error why -> [ ("error", json_str why) ]
    in
    "{" ^ String.concat ","
      (List.map (fun (k, v) -> json_str k ^ ":" ^ v)
         (("name", json_str q.name) :: ("expect", json_str q.expect)
         :: ("seconds", Printf.sprintf "%.6f" seconds) :: fields))
    ^ "}"
  in
  let layers =
    if !traced && not !setup_only then
      "{" ^ String.concat ","
        (List.map (fun (k, v) -> json_str k ^ ":" ^ json_num v) (ledger ~wall ~jobs))
      ^ "}"
    else "null"
  in
  List.iter (fun n -> Printf.eprintf "gate: %s: wrong verdict\n" n) wrong;
  Printf.printf
    "{\"workload\":%s,\"jobs\":%d,\"domains\":%d,\"ocaml\":%s,\"t_first_query\":%.6f,\
     \"wall_s\":%.6f,\"queries\":[%s],\"layers\":%s}\n%!"
    (json_str !workload) jobs (Domain.recommended_domain_count ()) (json_str Sys.ocaml_version)
    t_first wall
    (String.concat "," (List.map query_json results))
    layers;
  if wrong <> [] then exit 3
