(* Benchmark harness: regenerates every experiment of the paper
   reproduction (see DESIGN.md §4 and EXPERIMENTS.md) and then times the
   framework's kernels with Bechamel (one Test.make per experiment).

   Part 1 — experiment reproduction: prints the table/series each
   experiment reports (verdicts, parameter ranges, crossovers, paving
   volumes, probabilities).  Absolute numbers are machine-dependent; the
   *shapes* (who wins, where verdicts flip) are the reproduction targets.

   Measured sections (P1, C1, O1, J1, N1, AF1): workloads run under
   several configs (jobs values, a layer switch off vs on, a sink off vs
   on) on one harness ([measure]), with the answers checked to agree
   across configs in-process, and one writer ([write_json]) emitting
   every BENCH_*.json.

   Part 2 — kernel timing: Bechamel OLS estimates of ns/run for one
   representative workload per experiment, plus the ablations A1–A3.

   Run with:  dune exec bench/main.exe *)

module I = Interval.Ia
module Box = Interval.Box
module E = Reach.Encoding
module C = Reach.Checker
module Report = Core.Report

let section title = Report.print [ Report.heading title ]

(* Wall-clock time of one call: the E, S and A sections report it as
   is; [measure] builds the measured sections' rounds on it. *)
let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let verdict_kind = function
  | Icp.Solver.Delta_sat _ -> "delta-sat"
  | Icp.Solver.Unsat -> "unsat"
  | Icp.Solver.Unknown _ -> "unknown"

(* ------------------------------------------------------------------ *)
(* E1: Fenton–Karma spike-and-dome falsification                       *)
(* ------------------------------------------------------------------ *)

let e1 () =
  section "E1  Fenton-Karma spike-and-dome falsification (Sec. IV-A)";
  let fk = Biomodels.Fenton_karma.automaton () in
  let goal = Biomodels.Fenton_karma.spike_and_dome_goal () in
  let rows =
    List.map
      (fun k ->
        let r, dt =
          timed (fun () ->
              C.check (E.create ~min_jumps:2 ~goal ~k ~time_bound:400.0 fk))
        in
        [ string_of_int k; Fmt.str "%a" C.pp_result r; Fmt.str "%.2fs" dt ])
      [ 2; 3; 4 ]
  in
  Report.print
    [ Report.table ~header:[ "k"; "verdict (expected: unsat)"; "time" ] rows ]

(* ------------------------------------------------------------------ *)
(* E2: BCF tau_so1 synthesis + APD map                                 *)
(* ------------------------------------------------------------------ *)

let e2 () =
  section "E2  BCF parameter ranges causing early repolarization (Sec. IV-A)";
  let bcf = Biomodels.Bueno_cherry_fenton.automaton ~free_params:[ "tau_so1" ] () in
  let goal = Biomodels.Bueno_cherry_fenton.early_repolarization_goal () in
  let verdict_rows =
    List.map
      (fun (lo, hi, expected) ->
        let r, dt =
          timed (fun () ->
              C.check
                (E.create
                   ~param_box:(Box.of_list [ ("tau_so1", I.make lo hi) ])
                   ~goal ~k:3 ~time_bound:150.0 bcf))
        in
        [ Fmt.str "[%g, %g]" lo hi; expected; Fmt.str "%a" C.pp_result r;
          Fmt.str "%.2fs" dt ])
      [ (5.0, 45.0, "delta-sat (abnormal witness)");
        (5.0, 15.0, "delta-sat");
        (25.0, 45.0, "unsat") ]
  in
  let apd_rows =
    List.map
      (fun tau ->
        let apd =
          Biomodels.Bueno_cherry_fenton.apd
            ~constants:{ Biomodels.Bueno_cherry_fenton.epi with tau_so1 = tau }
            ~params:[] ~t_end:800.0 ()
        in
        [ Fmt.str "%.0f" tau;
          (match apd with Some a -> Fmt.str "%.1f" a | None -> "-") ])
      [ 8.0; 12.0; 16.0; 20.0; 25.0; 30.0; 40.0; 50.0; 60.0 ]
  in
  Report.print
    [ Report.table ~header:[ "tau_so1 box"; "expected"; "verdict"; "time" ] verdict_rows;
      Report.text "APD series (monotone increasing in tau_so1; EPI normal ~270):";
      Report.table ~header:[ "tau_so1"; "APD (ms)" ] apd_rows ]

(* ------------------------------------------------------------------ *)
(* E3: prostate cancer IAS therapy                                     *)
(* ------------------------------------------------------------------ *)

let e3 () =
  section "E3  Prostate cancer personalized IAS therapy (Sec. IV-B)";
  let sim_rows =
    List.map
      (fun (label, r0, r1) ->
        let y, cycles, _ = Biomodels.Prostate.simulate_therapy ~r0 ~r1 ~t_end:800.0 () in
        [ label; Fmt.str "%.3f" y; string_of_int cycles;
          (if y >= 1.0 then "RELAPSE" else "controlled") ])
      [ ("continuous", -1.0, 1e9); ("IAS 4/10", 4.0, 10.0); ("IAS 6/12", 6.0, 12.0) ]
  in
  let automaton = Biomodels.Prostate.automaton () in
  let relapse = Biomodels.Prostate.relapse_goal ~level:1.0 () in
  let ias, dt_ias =
    timed (fun () ->
        C.check
          (E.create
             ~param_box:(Box.of_list [ ("r0", I.make 2.0 6.0); ("r1", I.make 8.0 14.0) ])
             ~goal:relapse ~k:6 ~time_bound:400.0 automaton))
  in
  let cas, dt_cas =
    timed (fun () ->
        C.check
          (E.create ~goal:relapse ~k:2 ~time_bound:1500.0
             (Hybrid.Automaton.bind_params [ ("r0", -1.0); ("r1", 1e6) ] automaton)))
  in
  Report.print
    [ Report.table ~header:[ "protocol"; "final y"; "cycles"; "outcome" ] sim_rows;
      Report.kv
        [ ("relapse, IAS box r0:[2,6] r1:[8,14] (expect unsat)",
           Fmt.str "%a  (%.2fs)" C.pp_result ias dt_ias);
          ("relapse, continuous therapy (expect delta-sat)",
           Fmt.str "%a  (%.2fs)" C.pp_result cas dt_cas) ] ]

(* ------------------------------------------------------------------ *)
(* E4: TBI combination therapy (Fig. 3)                                *)
(* ------------------------------------------------------------------ *)

let e4 () =
  section "E4  TBI treatment-scheme synthesis 0->A->B->0 (Sec. IV-B, Fig. 3)";
  let automaton = Biomodels.Tbi.automaton () in
  let param_box =
    Box.of_list [ ("theta1", I.make 0.6 2.0); ("theta2", I.make 0.4 2.0) ]
  in
  let untreated = Biomodels.Tbi.simulate_policy ~theta1:100.0 ~theta2:100.0 ~t_end:60.0 () in
  let plan, dt =
    timed (fun () ->
        Core.Therapy.optimize ~param_box
          ~recovery:(Biomodels.Tbi.recovery_goal ())
          ~harm:(Biomodels.Tbi.death_goal ())
          ~max_jumps:4 ~time_bound:40.0 automaton)
  in
  Report.print
    [ Report.kv
        [ ("untreated outcome (expect death)", untreated.Hybrid.Simulate.final_mode);
          ("synthesized scheme (expect m0->mA->mB->m0, 3 jumps, safe)",
           Fmt.str "%a" Core.Therapy.pp_outcome plan);
          ("synthesis time", Fmt.str "%.2fs" dt) ] ]

(* ------------------------------------------------------------------ *)
(* E5: stimulation robustness sweep                                    *)
(* ------------------------------------------------------------------ *)

let e5 () =
  section "E5  Cardiac stimulation robustness sweep (Sec. IV-C)";
  let make (lo, hi) =
    Biomodels.Bueno_cherry_fenton.automaton ~stimulus:lo ~stimulus_width:(hi -. lo) ()
  in
  let goal = Biomodels.Bueno_cherry_fenton.excitation_goal () in
  let ranges = List.init 8 (fun i -> (0.05 *. float_of_int i, 0.05 *. float_of_int (i + 1))) in
  let rows =
    List.map
      (fun ((lo, hi), v) ->
        [ Fmt.str "[%.2f, %.2f]" lo hi; Fmt.str "%a" Core.Robustness.pp_verdict v ])
      (Core.Robustness.sweep ~goal ~k:3 ~time_bound:100.0 make ranges)
  in
  Report.print
    [ Report.table ~header:[ "stimulus range"; "verdict (crossover at 0.3)" ] rows ]

(* ------------------------------------------------------------------ *)
(* E6: Lyapunov stability certificates                                 *)
(* ------------------------------------------------------------------ *)

let e6 () =
  section "E6  Lyapunov synthesis via exists-forall delta-decisions (Sec. IV-C)";
  let rows =
    List.map
      (fun (name, sys) ->
        let region = Biomodels.Classics.unit_box (Ode.System.vars sys) in
        let (outcome, dt) =
          timed (fun () ->
              Lyapunov.Cegis.synthesize
                (Lyapunov.Cegis.problem ~region
                   ~template:(Lyapunov.Template.quadratic (Ode.System.vars sys))
                   sys))
        in
        match outcome with
        | Lyapunov.Cegis.Proved c ->
            [ name; Fmt.str "%a" Expr.Term.pp c.Lyapunov.Cegis.v;
              string_of_int c.Lyapunov.Cegis.iterations; Fmt.str "%.2fs" dt ]
        | o -> [ name; Fmt.str "%a" Lyapunov.Cegis.pp_outcome o; "-"; Fmt.str "%.2fs" dt ])
      [ ("damped rotation", Biomodels.Classics.damped_rotation);
        ("damped nonlinear", Biomodels.Classics.damped_nonlinear);
        ("proofreading chain", Biomodels.Classics.proofreading);
        ("ERK cascade", Biomodels.Classics.erk_cascade) ]
  in
  Report.print [ Report.table ~header:[ "system"; "V"; "iters"; "time" ] rows ]

(* ------------------------------------------------------------------ *)
(* E7: guaranteed calibration (BioPSy workload)                        *)
(* ------------------------------------------------------------------ *)

let e7 () =
  section "E7  Guaranteed calibration of a single-mode ODE model (Sec. IV-A)";
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ] in
  let data =
    List.map
      (fun t ->
        Synth.Data.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:0.08)
      [ 0.25; 0.5; 0.75; 1.0 ]
  in
  let prob =
    Synth.Biopsy.problem ~sys
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data
  in
  let rows =
    List.map
      (fun eps ->
        let r, dt =
          timed (fun () ->
              Synth.Biopsy.synthesize
                ~config:{ Synth.Biopsy.default_config with epsilon = eps }
                prob)
        in
        let vc, vi, vu = Synth.Biopsy.volumes prob r in
        [ Fmt.str "%.3f" eps; Fmt.str "%.4f" vc; Fmt.str "%.4f" vi;
          Fmt.str "%.4f" vu; string_of_int r.Synth.Biopsy.boxes_explored;
          Fmt.str "%.2fs" dt ])
      [ 0.2; 0.1; 0.05; 0.02 ]
  in
  (* falsification instance *)
  let bad_data =
    [ Synth.Data.point ~time:0.5 ~var:"x" ~value:2.0 ~tolerance:0.2;
      Synth.Data.point ~time:1.0 ~var:"x" ~value:4.0 ~tolerance:0.2 ]
  in
  let bad =
    Synth.Biopsy.problem ~sys
      ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
      ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
      ~data:bad_data
  in
  let fr = Synth.Biopsy.synthesize bad in
  Report.print
    [ Report.text
        "paving volumes vs epsilon (undecided must shrink, truth k=1 in consistent):";
      Report.table
        ~header:[ "eps"; "consistent"; "inconsistent"; "undecided"; "boxes"; "time" ]
        rows;
      Report.text "growth data against the decay model: falsified = %b (expect true)"
        (Synth.Biopsy.falsified fr) ]

(* ------------------------------------------------------------------ *)
(* E8: SMC of the p53 module                                           *)
(* ------------------------------------------------------------------ *)

let e8 () =
  section "E8  SMC of the p53 radiation-response module (Fig. 2 branch)";
  let problem lo hi =
    Smc.Runner.problem
      ~model:(Smc.Runner.Ode_model Biomodels.Classics.p53_mdm2)
      ~init_dist:
        [ ("p53", Smc.Sampler.Uniform (0.02, 0.08));
          ("mdm2", Smc.Sampler.Uniform (0.02, 0.08)) ]
      ~param_dist:[ ("damage", Smc.Sampler.Uniform (lo, hi)) ]
      ~property:(Smc.Bltl.Finally (30.0, Smc.Bltl.prop "p53 >= 0.3"))
      ~t_end:30.0 ()
  in
  let rows =
    List.map
      (fun (label, lo, hi) ->
        let e, dt = timed (fun () -> Smc.Runner.estimate ~eps:0.1 ~alpha:0.05 (problem lo hi)) in
        [ label; Fmt.str "%.3f" e.Smc.Estimate.p_hat;
          Fmt.str "[%.2f, %.2f]" e.Smc.Estimate.ci_low e.Smc.Estimate.ci_high;
          string_of_int e.Smc.Estimate.n; Fmt.str "%.2fs" dt ])
      [ ("damage 0.0-0.1", 0.0, 0.1); ("damage 0.1-0.5", 0.1, 0.5);
        ("damage 0.5-1.5", 0.5, 1.5) ]
  in
  let sprt =
    Smc.Runner.test ~config:{ Smc.Sprt.default_config with theta = 0.9 }
      (problem 0.5 1.5)
  in
  Report.print
    [ Report.table ~header:[ "regime"; "P(pulse)"; "95% CI"; "n"; "time" ] rows;
      Report.text "SPRT P >= 0.9 at high damage: %s" (Fmt.str "%a" Smc.Sprt.pp_result sprt) ]

(* ------------------------------------------------------------------ *)
(* E9: DBN abstraction (the paper's proposed probabilistic extension)  *)
(* ------------------------------------------------------------------ *)

let e9 () =
  section "E9  Factored-DBN abstraction vs ground truth (Conclusion / refs [3]-[5])";
  let decay = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ] in
  let grid = Dbn.Grid.create [ Dbn.Grid.axis ~var:"x" ~lo:0.0 ~hi:1.5 ~cells:15 ] in
  let init_dist = [ ("x", Smc.Sampler.Uniform (0.8, 1.2)) ] in
  let m, learn_t =
    timed (fun () ->
        Dbn.Model.learn
          ~config:{ Dbn.Model.default_learn with Dbn.Model.samples = 1500 }
          ~grid ~slices:10 ~horizon:2.0 ~init_dist ~param_dist:[] decay)
  in
  let belief = Dbn.Model.belief_of_dist m init_dist in
  (* analytic: P(x0 e^-t <= 0.5) for x0 ~ U(0.8, 1.2) *)
  let exact t =
    let lim = 0.5 *. Float.exp t in
    Float.max 0.0 (Float.min 1.0 ((lim -. 0.8) /. 0.4))
  in
  let rows =
    List.map
      (fun t ->
        let p =
          Dbn.Model.probability m ~init_belief:belief ~var:"x" ~time:t (fun x ->
              x <= 0.5)
        in
        [ Fmt.str "%.1f" t; Fmt.str "%.3f" p; Fmt.str "%.3f" (exact t);
          Fmt.str "%.3f" (Float.abs (p -. exact t)) ])
      [ 0.2; 0.4; 0.6; 0.8; 1.0; 1.2 ]
  in
  Report.print
    [ Report.text "decay workload, P(x <= 0.5 at t), learned in %.2fs:" learn_t;
      Report.table ~header:[ "t"; "DBN"; "exact"; "abs err" ] rows ]

(* ------------------------------------------------------------------ *)
(* S1: delta-decision solver scaling                                   *)
(* ------------------------------------------------------------------ *)

let s1 () =
  section "S1  ICP solver behaviour: runtime vs delta and dimension (Sec. III)";
  (* Tangency instance: x² + y² = 1 ∧ xy = 1/2 touches at the single
     point x = y = 1/√2, so certification must localize a thin set —
     the work grows as δ shrinks.  The near-tangent plane instance does
     the same for the dimension sweep. *)
  let tangency = Expr.Parse.formula "x^2 + y^2 = 1 and x*y = 1/2" in
  let tangency_box = Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ] in
  let near_tangent_plane n =
    let vars = List.init n (fun i -> Printf.sprintf "x%d" i) in
    let sum_sq =
      String.concat " + " (List.map (fun v -> Printf.sprintf "%s^2" v) vars)
    in
    let f =
      Expr.Parse.formula
        (Printf.sprintf "%s = 1 and %s >= %.17g" sum_sq
           (String.concat " + " vars)
           (0.98 *. Float.sqrt (float_of_int n)))
    in
    let box = Box.of_list (List.map (fun v -> (v, I.make (-2.0) 2.0)) vars) in
    (f, box)
  in
  let delta_rows =
    List.map
      (fun delta ->
        let config =
          { Icp.Solver.default_config with delta; epsilon = delta /. 10.0 }
        in
        let (r, stats), dt =
          timed (fun () -> Icp.Solver.decide_with_stats ~config tangency tangency_box)
        in
        [ Fmt.str "%.0e" delta; verdict_kind r;
          string_of_int stats.Icp.Solver.boxes_processed; Fmt.str "%.4fs" dt ])
      [ 1e-1; 1e-2; 1e-3; 1e-4; 1e-5; 1e-6 ]
  in
  let dim_rows =
    List.map
      (fun n ->
        let f, box = near_tangent_plane n in
        let config = { Icp.Solver.default_config with delta = 1e-3; epsilon = 1e-4 } in
        let (r, stats), dt =
          timed (fun () -> Icp.Solver.decide_with_stats ~config f box)
        in
        [ string_of_int n; verdict_kind r;
          string_of_int stats.Icp.Solver.boxes_processed; Fmt.str "%.4fs" dt ])
      [ 1; 2; 3; 4; 5 ]
  in
  Report.print
    [ Report.text "tangency instance (x²+y²=1 ∧ xy=1/2), shrinking delta:";
      Report.table ~header:[ "delta"; "verdict"; "boxes"; "time" ] delta_rows;
      Report.text "near-tangent sphere/plane, dimension scaling at delta = 1e-3:";
      Report.table ~header:[ "dim"; "verdict"; "boxes"; "time" ] dim_rows ]

(* ------------------------------------------------------------------ *)
(* Ablations                                                           *)
(* ------------------------------------------------------------------ *)

let a1 () =
  section "A1  Ablation: validated-enclosure order (Euler-1 vs Taylor-2)";
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ] in
  let osc =
    Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[]
      ~rhs:[ ("x", "y"); ("y", "-x") ]
  in
  let run name sys init t_end order =
    let config = { Ode.Enclosure.default_config with order } in
    let tube, dt =
      timed (fun () ->
          Ode.Enclosure.flow ~config ~params:Box.empty_map ~init ~t_end sys)
    in
    [ name;
      (match order with Ode.Enclosure.Euler_1 -> "Euler-1" | Ode.Enclosure.Taylor_2 -> "Taylor-2");
      Fmt.str "%.3g" (Box.width tube.Ode.Enclosure.final);
      string_of_bool tube.Ode.Enclosure.complete; Fmt.str "%.3fs" dt ]
  in
  let x0 = Box.of_list [ ("x", I.of_float 1.0) ] in
  let xy0 = Box.of_list [ ("x", I.of_float 1.0); ("y", I.of_float 0.0) ] in
  Report.print
    [ Report.table
        ~header:[ "system"; "order"; "final width"; "complete"; "time" ]
        [ run "decay t=1" sys x0 1.0 Ode.Enclosure.Euler_1;
          run "decay t=1" sys x0 1.0 Ode.Enclosure.Taylor_2;
          run "oscillator t=2" osc xy0 2.0 Ode.Enclosure.Euler_1;
          run "oscillator t=2" osc xy0 2.0 Ode.Enclosure.Taylor_2 ] ]

let a2 () =
  section "A2  Ablation: mode-path enumeration with/without goal pruning";
  let tbi = Biomodels.Tbi.automaton () in
  let g = Hybrid.Graph.of_automaton tbi in
  let rows =
    List.map
      (fun k ->
        let all = Hybrid.Graph.paths ~max_jumps:k g ~source:"m0" in
        let pruned = Hybrid.Graph.paths ~targets:[ "m0" ] ~max_jumps:k g ~source:"m0" in
        [ string_of_int k; string_of_int (List.length all);
          string_of_int (List.length pruned) ])
      [ 2; 3; 4; 5; 6 ]
  in
  Report.print
    [ Report.text "TBI automaton (7 modes): candidate paths to explore:";
      Report.table ~header:[ "k"; "all paths"; "goal-pruned" ] rows ]

let a3 () =
  section "A3  Ablation: ICP contraction on/off in the delta-decision search";
  let f = Expr.Parse.formula "x^2 + y^2 = 1 and y >= x and x*y >= 0.1" in
  let box = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-2.0) 2.0) ] in
  let rows =
    List.map
      (fun (label, use_contraction) ->
        let config = { Icp.Solver.default_config with use_contraction } in
        let (r, stats), dt = timed (fun () -> Icp.Solver.decide_with_stats ~config f box) in
        [ label; verdict_kind r;
          string_of_int stats.Icp.Solver.boxes_processed;
          string_of_int stats.Icp.Solver.prunings; Fmt.str "%.4fs" dt ])
      [ ("HC4 + bisection", true); ("bisection only", false) ]
  in
  Report.print
    [ Report.table ~header:[ "variant"; "verdict"; "boxes"; "prunings"; "time" ] rows ]

let a4 () =
  section "A4  Ablation: ensemble-bracket size in the reachability checker";
  let automaton = Biomodels.Prostate.automaton () in
  let relapse = Biomodels.Prostate.relapse_goal ~level:1.0 () in
  let pb =
    E.create
      ~param_box:(Box.of_list [ ("r0", I.make 2.0 6.0); ("r1", I.make 8.0 14.0) ])
      ~goal:relapse ~k:6 ~time_bound:400.0 automaton
  in
  let rows =
    List.map
      (fun n ->
        let config = { C.default_config with fallback_samples = n } in
        let r, dt = timed (fun () -> C.check ~config pb) in
        [ string_of_int n; Fmt.str "%a" C.pp_result r; Fmt.str "%.2fs" dt ])
      [ 4; 12; 24; 48 ]
  in
  Report.print
    [ Report.text "E3 IAS-safety instance; the verdict must be stable in the";
      Report.text "ensemble size while cost grows roughly linearly:";
      Report.table ~header:[ "samples"; "verdict"; "time" ] rows ]

(* ------------------------------------------------------------------ *)
(* The measurement harness of P1, C1, O1, J1, N1 and AF1              *)
(* ------------------------------------------------------------------ *)

(* Every measured section has one shape: workloads × configs → records.
   A config is one arm of the comparison (a jobs value, a switch off or
   on, a sink off or on); [measure] runs one workload under every config
   and is the only timing loop of the bench:

   - one untimed warm-up run of the first config, so the first round
     does not pay for cold caches and allocator growth;
   - then [rounds] rounds, each timing every config once, in forward
     order on even rounds and in reverse order on odd ones.  Shared
     containers throttle in multi-second waves, so a protocol that timed
     one config's rounds far apart from another's would measure the
     wave, not the config; alternating inside each round taxes every
     config alike, and neither end of the list always runs on the
     fresher CPU;
   - a major GC before every timed run, so no run pays for the garbage
     of the previous one.  [enter] / [leave] bracket each run outside
     the clock (cache clears, sink and telemetry switches).

   A config's wall time is its minimum over the rounds (the noise-floor
   estimate).  Its speedup is the median over rounds of the first
   config's wall divided by its own wall in the same round: the two runs
   are close in time, so a slow wave taxes both sides of each ratio, and
   the median discards the rounds a wave boundary happened to split.

   Every config must reproduce its own answer and counts in every round
   (the determinism contract), and every config's result must agree
   with the first config's: the answers are identical unless the section
   passes a weaker [agree] (the same verdict kind, pavings that do not
   contradict, an estimate inside the statistical corridor).  A failed
   check raises, so a bug cannot hide behind a good-looking ratio. *)

type 'p config = {
  label : string;
  param : 'p;  (* what the workload's run function receives *)
  enter : unit -> unit;
  leave : unit -> unit;
}

let config ?(enter = ignore) ?(leave = ignore) label param =
  { label; param; enter; leave }

(* One record per (workload, config); every BENCH_*.json lists them. *)
type record = {
  workload : string;
  config : string;
  wall_s : float;  (* per-config minimum over the rounds *)
  speedup : float;  (* median within-round ratio: first config / this *)
  answer : string;  (* what the configs were checked to agree on *)
  counts : (string * int) list;  (* identical in every round *)
  values : (string * float) list;  (* section-specific measurements *)
}

let median a =
  let a = Array.copy a in
  Array.sort compare a;
  let n = Array.length a in
  if n land 1 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Returns each config's result (from its first timed round) with its
   record, in config order. *)
let measure ~section ~workload ~rounds ~answer ?(counts = fun _ -> [])
    ?(values = fun _ -> []) ?agree configs run =
  let configs = Array.of_list configs in
  let k = Array.length configs in
  let fail fmt =
    Printf.ksprintf
      (fun msg -> failwith (Printf.sprintf "%s %s: %s" section workload msg))
      fmt
  in
  let timed_run c =
    c.enter ();
    Fun.protect ~finally:c.leave (fun () ->
        Gc.full_major ();
        timed (fun () -> run c.param))
  in
  ignore (timed_run configs.(0));
  let results = Array.make k None in
  let walls = Array.make_matrix k rounds 0.0 in
  for round = 0 to rounds - 1 do
    for j = 0 to k - 1 do
      let i = if round land 1 = 0 then j else k - 1 - j in
      let r, dt = timed_run configs.(i) in
      walls.(i).(round) <- dt;
      let key = (answer r, counts r) in
      match results.(i) with
      | None -> results.(i) <- Some (r, key)
      | Some (_, first) ->
          if key <> first then
            fail "%s is not reproducible (%s, then %s)" configs.(i).label
              (fst first) (fst key)
    done
  done;
  let result i = fst (Option.get results.(i)) in
  let base = result 0 in
  let agrees r =
    match agree with Some f -> f base r | None -> answer base = answer r
  in
  Array.iteri
    (fun i c ->
      if not (agrees (result i)) then
        fail "%s (%s) disagrees with %s (%s)" c.label (answer (result i))
          configs.(0).label (answer base))
    configs;
  List.init k (fun i ->
      let r = result i in
      ( r,
        { workload;
          config = configs.(i).label;
          wall_s = Array.fold_left Float.min infinity walls.(i);
          speedup =
            median (Array.init rounds (fun n -> walls.(0).(n) /. walls.(i).(n)));
          answer = answer r;
          counts = counts r;
          values = values r } ))

(* The bench's one JSON writer.  Every BENCH_*.json is an object with
   "section", "quick", "rounds", "timing" (the harness rule above),
   "meta" (section-level facts: core count, budgets, trace volume) and
   "records" (one per workload × config, fields as in [record]).
   Non-finite numbers (a diverged tube's width) are written as null. *)
module Json = Telemetry.Json

let timing_rule =
  "configs alternate within each round (reversed every other round), \
   each timed run preceded by a major GC; wall_s is the per-config \
   minimum over the rounds; speedup is the median over rounds of the \
   first config's wall divided by this config's wall in the same round"

let rec json_to_buffer buf (v : Json.t) =
  let list sep f l =
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_string buf sep;
        f x)
      l
  in
  match v with
  | Json.Null -> Buffer.add_string buf "null"
  | Json.Bool b -> Buffer.add_string buf (string_of_bool b)
  | Json.Num f when not (Float.is_finite f) -> Buffer.add_string buf "null"
  | Json.Num f when Float.is_integer f && Float.abs f < 1e15 ->
      Buffer.add_string buf (Printf.sprintf "%.0f" f)
  | Json.Num f -> Buffer.add_string buf (Printf.sprintf "%.6g" f)
  | Json.Str s -> Json.escape buf s
  | Json.Arr l ->
      Buffer.add_char buf '[';
      list ", " (json_to_buffer buf) l;
      Buffer.add_char buf ']'
  | Json.Obj l ->
      Buffer.add_char buf '{';
      list ", "
        (fun (k, x) ->
          Json.escape buf k;
          Buffer.add_string buf ": ";
          json_to_buffer buf x)
        l;
      Buffer.add_char buf '}'

let jint n = Json.Num (float_of_int n)

let json_of_record r =
  Json.Obj
    [ ("workload", Json.Str r.workload);
      ("config", Json.Str r.config);
      ("wall_s", Json.Num r.wall_s);
      ("speedup", Json.Num r.speedup);
      ("answer", Json.Str r.answer);
      ("counts", Json.Obj (List.map (fun (k, n) -> (k, jint n)) r.counts));
      ("values", Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) r.values)) ]

let write_json file ~section ~quick ~rounds ?(meta = []) records =
  let buf = Buffer.create 4096 in
  let field ?(last = false) k v =
    Buffer.add_string buf "  ";
    Json.escape buf k;
    Buffer.add_string buf ": ";
    json_to_buffer buf v;
    Buffer.add_string buf (if last then "\n" else ",\n")
  in
  Buffer.add_string buf "{\n";
  field "section" (Json.Str section);
  field "quick" (Json.Bool quick);
  field "rounds" (jint rounds);
  field "timing" (Json.Str timing_rule);
  field "meta" (Json.Obj meta);
  Buffer.add_string buf "  \"records\": [\n";
  List.iteri
    (fun i r ->
      Buffer.add_string buf (if i = 0 then "    " else ",\n    ");
      json_to_buffer buf (json_of_record r))
    records;
  Buffer.add_string buf "\n  ]\n}\n";
  let oc = open_out file in
  output_string oc (Buffer.contents buf);
  close_out oc;
  Report.print [ Report.text "wrote %s" file ]

let count r k = match List.assoc_opt k r.counts with Some n -> n | None -> 0
let secs s = Fmt.str "%.3fs" s

let search_counts (s : Icp.Solver.stats) =
  [ ("boxes_processed", s.Icp.Solver.boxes_processed);
    ("splits", s.Icp.Solver.splits);
    ("prunings", s.Icp.Solver.prunings) ]

(* Exact, order-sensitive rendering of box lists (Box.to_string prints
   round-trip bounds), digested to 12 hex digits: two runs agree iff
   every list does, element for element. *)
let boxes_digest lists =
  let render l = String.concat ";" (List.map Box.to_string l) in
  String.sub
    (Digest.to_hex (Digest.string (String.concat "|" (List.map render lists))))
    0 12

(* ------------------------------------------------------------------ *)
(* P1: multicore scaling sweep (jobs = 1, 2, 4, 8)                     *)
(* ------------------------------------------------------------------ *)

(* Each kernel is one harness workload whose configs are the jobs
   values; jobs = 1 is the first config, so the speedup column is the
   median within-round ratio against the sequential drive.  Every
   parallel run is checked against it in-process — verdict kind for
   decide, exact leaf multiset for pave, a 2ε Chernoff corridor for the
   SMC estimate — so a scheduler bug cannot hide behind a good-looking
   speedup.  Results land in BENCH_icp.json, with the detected core
   count: speedups are bounded by it, and jobs beyond it are
   multiplexed onto the available domains. *)

let p1_jobs_sweep = [ 1; 2; 4; 8 ]

(* One run's scheduler telemetry, read off the metrics registry. *)
let p1_snapshot_sched () =
  let counters = Telemetry.Metrics.counters () in
  let c name = match List.assoc_opt name counters with Some v -> v | None -> 0 in
  let p50, p99 =
    match List.assoc_opt "pool.deque_depth" (Telemetry.Metrics.histograms ()) with
    | Some snap when snap.Telemetry.Histogram.count > 0 ->
        ( Telemetry.Histogram.quantile 0.5 snap,
          Telemetry.Histogram.quantile 0.99 snap )
    | _ -> (0, 0)
  in
  [ ("steals", c "pool.steals");
    ("steal_fails", c "pool.steal_fails");
    ("idle_ns", c "pool.idle_ns");
    ("lease_refills", c "pool.lease_refills");
    ("deque_depth_p50", p50);
    ("deque_depth_p99", p99) ]

let p1 ?(quick = false) () =
  section
    (if quick then "P1  Multicore scaling: decide / pave / SMC (quick)"
     else "P1  Multicore scaling: decide / pave / SMC across worker domains");
  let sweep = if quick then [ 1; 2 ] else p1_jobs_sweep in
  let rounds = if quick then 3 else 13 in
  (* Near-tangency unsat: max of x*y*z on the unit sphere is 3^(-3/2) ≈
     0.192450, so x*y*z = 0.1925 misses by 5e-5 — refuting it must
     exhaust a deep search tree (≈16k boxes), which is the
     parallelizable regime; a δ-sat race would end at the first witness
     instead.  (The PR-1..6 tangency kernel decided in a handful of
     boxes after the Newton/affine layers landed and measured only
     scheduler constants.) *)
  let sphere =
    Expr.Parse.formula "x^2 + y^2 + z^2 = 1 and x*y*z = 1925/10000"
  in
  let sphere_box =
    Box.of_list
      [ ("x", I.make 0.0 1.0); ("y", I.make 0.0 1.0); ("z", I.make 0.0 1.0) ]
  in
  let ring = Expr.Parse.formula "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2" in
  let ring_box =
    Box.of_list [ ("x", I.make (-1.5) 1.5); ("y", I.make (-1.5) 1.5) ]
  in
  let smc_eps = 0.03 in
  let smc_prob =
    Smc.Runner.problem
      ~model:(Smc.Runner.Ode_model Biomodels.Classics.p53_mdm2)
      ~init_dist:
        [ ("p53", Smc.Sampler.Uniform (0.02, 0.08));
          ("mdm2", Smc.Sampler.Uniform (0.02, 0.08)) ]
      ~param_dist:[ ("damage", Smc.Sampler.Uniform (0.5, 1.5)) ]
      ~property:(Smc.Bltl.Finally (30.0, Smc.Bltl.prop "p53 >= 0.3"))
      ~t_end:30.0 ()
  in
  (* Parallel pavings list their leaves in scheduling order; sorted,
     they must be the sequential leaf multiset exactly. *)
  let sort = List.sort (fun a b -> compare (Box.to_list a) (Box.to_list b)) in
  (* Timed rounds run with metrics OFF: the pool's per-item counters and
     the deque-depth histogram only fire on the pooled (jobs > 1) code
     path, so leaving them on would tax exactly the runs whose speedup
     is being measured.  Scheduler telemetry instead comes from one
     extra, untimed run per (kernel, jobs) cell with metrics enabled —
     the kernels are deterministic at a fixed jobs value (the harness
     asserts it), so the extra run retraces the measured ones. *)
  let kernel name ~answer ~counts ?values ?agree run =
    let arms =
      measure ~section:"P1" ~workload:name ~rounds ~answer ~counts ?values
        ?agree
        (List.map (fun jobs -> config (Printf.sprintf "jobs=%d" jobs) jobs) sweep)
        run
    in
    List.map2
      (fun jobs (r, record) ->
        Telemetry.set_metrics true;
        Fun.protect ~finally:(fun () -> Telemetry.set_metrics false)
        @@ fun () ->
        Telemetry.reset ();
        if answer (run jobs) <> answer r then
          failwith (Printf.sprintf "P1 %s: jobs=%d is not reproducible" name jobs);
        { record with counts = record.counts @ p1_snapshot_sched () })
      sweep arms
  in
  let decide jobs =
    Icp.Solver.decide_with_stats
      ~config:
        { Icp.Solver.default_config with
          delta = 1e-7; epsilon = 1e-8; max_boxes = 10_000_000; jobs }
      sphere sphere_box
  in
  let pave jobs =
    Icp.Solver.pave_with_stats
      ~config:{ Icp.Solver.default_config with epsilon = 0.005; jobs }
      ring ring_box
  in
  let smc jobs = Smc.Runner.estimate ~jobs ~eps:smc_eps ~alpha:0.05 smc_prob in
  let decide_records =
    kernel "icp-decide-sphere"
      ~answer:(fun (r, _) -> verdict_kind r)
      ~counts:(fun (_, s) ->
        search_counts s @ [ ("certifications", s.Icp.Solver.certifications) ])
      decide
  in
  let pave_records =
    kernel "icp-pave-ring"
      ~answer:(fun ((p : Icp.Solver.paving), _) ->
        Fmt.str "%d/%d/%d leaves, digest %s" (List.length p.sat)
          (List.length p.unsat) (List.length p.undecided)
          (boxes_digest (List.map sort [ p.sat; p.unsat; p.undecided ])))
      ~counts:(fun (_, s) -> search_counts s)
      pave
  in
  let smc_records =
    kernel "smc-estimate-p53"
      ~answer:(fun e -> Fmt.str "p=%.3f" e.Smc.Estimate.p_hat)
      ~counts:(fun e ->
        [ ("samples", e.Smc.Estimate.n); ("successes", e.Smc.Estimate.successes) ])
      ~values:(fun e -> [ ("p_hat", e.Smc.Estimate.p_hat) ])
      (* different jobs consume different PRNG streams; both estimates
         carry the same Chernoff ±ε bound *)
      ~agree:(fun a b ->
        Float.abs (a.Smc.Estimate.p_hat -. b.Smc.Estimate.p_hat)
        <= 2.0 *. smc_eps)
      smc
  in
  let records = decide_records @ pave_records @ smc_records in
  let result r =
    match r.workload with
    | "icp-decide-sphere" ->
        Fmt.str "%s, %d boxes, %d certs" r.answer (count r "boxes_processed")
          (count r "certifications")
    | "icp-pave-ring" ->
        Fmt.str "%s, %d boxes, %d splits" r.answer (count r "boxes_processed")
          (count r "splits")
    | _ -> Fmt.str "%s, n=%d" r.answer (count r "samples")
  in
  Report.print
    [ Report.text
        "detected cores: %d (speedups are bounded by this; jobs beyond the"
        (Domain.recommended_domain_count ());
      Report.text
        "domain cap are multiplexed sequentially, so they cost ~nothing)";
      Report.text
        "parallel runs are checked against jobs=1 in-process (verdict /";
      Report.text "leaf set / 2-eps estimate corridor)";
      Report.table
        ~header:
          [ "kernel"; "config"; "wall"; "speedup"; "steals"; "refills"; "idle";
            "result" ]
        (List.map
           (fun r ->
             [ r.workload; r.config; secs r.wall_s; Fmt.str "%.2fx" r.speedup;
               string_of_int (count r "steals");
               string_of_int (count r "lease_refills");
               Fmt.str "%.1fms" (float_of_int (count r "idle_ns") /. 1e6);
               result r ])
           records) ];
  write_json "BENCH_icp.json" ~section:"P1" ~quick ~rounds
    ~meta:
      [ ("cores", jint (Domain.recommended_domain_count ()));
        ("default_jobs", jint (Parallel.Pool.default_jobs ()));
        ("domain_cap", jint (Parallel.Pool.domain_cap ()));
        ( "note",
          Json.Str
            "jobs beyond the core count are multiplexed onto the available \
             domains, so speedups are bounded by cores. Scheduler counters \
             (steals .. deque_depth_p99) come from one extra untimed run per \
             config with metrics enabled; timed rounds ran with metrics off." ) ]
    records

(* ------------------------------------------------------------------ *)
(* C1: exact-hit caches off vs on (jobs = 1)                          *)
(* ------------------------------------------------------------------ *)

(* Each kernel runs the same workload with every cache disabled
   (exactly the BIOMC_NO_CACHE=1 code path) and enabled, clearing all
   caches before each timed run so every run starts cold.  The two
   kernels exercise the two stores: the BioPSy verdict store and the
   reach segment store.  The answers are checked to be
   byte-identical (exact replays are identity-preserving), so the
   speedup column is pure memoization gain.  Results land in
   BENCH_cache.json, together with the SMC allocation before/after row
   (the in-place RKF45 loop vs the old allocating steppers).

   Passed [~quick:true] (the CI smoke job), the workloads shrink. *)

let c1 ?(quick = false) () =
  section
    (if quick then "C1  Exact-hit caches off vs on (jobs = 1, quick)"
     else "C1  Exact-hit caches off vs on (jobs = 1)");
  let rounds = if quick then 2 else 3 in
  let switch label on =
    config label ()
      ~enter:(fun () ->
        Cache.set_enabled on;
        Cache.clear ())
      ~leave:Cache.clear_enabled_override
  in
  let cached name ~note ~answer run =
    match
      measure ~section:"C1" ~workload:name ~rounds ~answer
        [ switch "cache off" false; switch "cache on" true ]
        run
    with
    | [ (_, off); (_, on) ] -> (note, off, on)
    | _ -> assert false
  in
  let canon_boxes boxes =
    String.concat ";" (List.sort compare (List.map Box.to_string boxes))
  in
  (* Primary kernel: the E7 calibration refinement sweep.  Each finer
     epsilon re-pavess the parameter box; the paving tree at epsilon is a
     depth-pruned prefix of the tree at epsilon/2, so with caching every
     previously classified box is an exact hit and only the new frontier
     pays for validated tubes. *)
  let biopsy_kernel () =
    let sys =
      Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[ "a" ]
        ~rhs:[ ("x", "a*x - x*y"); ("y", "x*y - y") ]
    in
    let tr =
      Ode.Integrate.simulate ~params:[ ("a", 1.0) ]
        ~init:[ ("x", 1.0); ("y", 0.5) ]
        ~t_end:1.5 sys
    in
    let data =
      List.concat_map
        (fun t ->
          List.map
            (fun v ->
              Synth.Data.point ~time:t ~var:v
                ~value:(Ode.Integrate.value_at tr v t)
                ~tolerance:0.25)
            [ "x"; "y" ])
        [ 0.5; 1.0; 1.5 ]
    in
    let prob =
      Synth.Biopsy.problem ~sys
        ~param_box:(Box.of_list [ ("a", I.make 0.5 1.5) ])
        ~init:(Box.of_list [ ("x", I.of_float 1.0); ("y", I.of_float 0.5) ])
        ~data
    in
    let epsilons = if quick then [ 0.1; 0.05; 0.02 ] else [ 0.1; 0.05; 0.02; 0.01 ] in
    cached "biopsy-refinement-sweep"
      ~note:
        (Fmt.str "eps %s, identical pavings"
           (String.concat ">" (List.map (Fmt.str "%g") epsilons)))
      ~answer:(fun rs ->
        String.concat "\n"
          (List.map
             (fun (r : Synth.Biopsy.result) ->
               Printf.sprintf "%s|%s|%s|%d"
                 (canon_boxes r.Synth.Biopsy.consistent)
                 (canon_boxes r.Synth.Biopsy.inconsistent)
                 (canon_boxes r.Synth.Biopsy.undecided)
                 r.Synth.Biopsy.boxes_explored)
             rs))
      (fun () ->
        List.map
          (fun eps ->
            Synth.Biopsy.synthesize
              ~config:{ Synth.Biopsy.default_config with epsilon = eps }
              prob)
          epsilons)
  in
  (* Reach re-verification: the same bounded-reachability query checked
     twice (tool-restart replay) and then a second goal over the same
     automaton — flow-tube segments are goal-independent, so both later
     checks hit the segment cache. *)
  let reach_kernel () =
    let a =
      Hybrid.Automaton.of_system
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])
    in
    let pb pred =
      E.create
        ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
        ~goal:{ E.goal_modes = []; predicate = Expr.Parse.formula pred }
        ~k:0 ~time_bound:1.0 a
    in
    cached "reach-shared-segments" ~answer:Fun.id
      ~note:"goal1, goal1 again, goal2; identical verdicts" (fun () ->
        let r1 = C.check (pb "x <= 0.3") in
        let r2 = C.check (pb "x <= 0.3") in
        let r3 = C.check (pb "x <= 0.5") in
        Fmt.str "%a / %a / %a" C.pp_result r1 C.pp_result r2 C.pp_result r3)
  in
  let kernels = [ biopsy_kernel (); reach_kernel () ] in
  Report.print
    [ Report.table
        ~header:[ "kernel"; "cache off"; "cache on"; "speedup"; "check" ]
        (List.map
           (fun (note, off, on) ->
             [ off.workload; secs off.wall_s; secs on.wall_s;
               Fmt.str "%.2fx" on.speedup; note ])
           kernels);
      Report.text "cache-on rounds: %s" (Cache.summary ()) ];
  (* SMC allocation row: the pre-optimization RKF45 driver (the public
     allocating [rkf45_step] per step, fresh arrays throughout) against
     the in-place [simulate] loop, on the same p53 trajectory every SMC
     sample executes.  The arithmetic is unchanged, so the traces must
     agree bit for bit. *)
  let sys = Biomodels.Classics.p53_mdm2 in
  let params = [ ("damage", 1.0) ] in
  let init = [ ("p53", 0.05); ("mdm2", 0.05) ] in
  let t_end = 30.0 in
  let rtol, atol, h0, h_max =
    match Ode.Integrate.default_rkf45 with
    | Ode.Integrate.Rkf45 { rtol; atol; h0; h_max } -> (rtol, atol, h0, h_max)
    | _ -> assert false
  in
  let before () =
    let f = Ode.System.compile ~param_env:params sys in
    let y0 =
      Array.of_list
        (List.map (fun v -> List.assoc v init) (Ode.System.vars sys))
    in
    let n = Array.length y0 in
    let times = ref [ 0.0 ] and states = ref [ y0 ] in
    let t = ref 0.0 and y = ref y0 and h = ref h0 in
    let continue_ = ref true in
    let safety = 0.9 and h_min = 1e-12 in
    let accept tacc ynew =
      t := tacc;
      y := ynew;
      times := tacc :: !times;
      states := ynew :: !states
    in
    while !continue_ && !t < t_end -. 1e-15 do
      let hstep = Float.min !h (t_end -. !t) in
      let yc = !y in
      let y4, y5 = Ode.Integrate.rkf45_step f !t yc hstep in
      let err = ref 0.0 in
      for i = 0 to n - 1 do
        let sc =
          atol +. (rtol *. Float.max (Float.abs yc.(i)) (Float.abs y4.(i)))
        in
        let e = Float.abs (y5.(i) -. y4.(i)) /. sc in
        if e > !err then err := e
      done;
      if Float.is_nan !err then begin
        if hstep <= h_min *. 2.0 then continue_ := false
        else h := hstep /. 10.0
      end
      else if !err <= 1.0 then begin
        accept (!t +. hstep) y5;
        let grow = safety *. Float.pow (1.0 /. Float.max !err 1e-10) 0.2 in
        h := Float.min h_max (hstep *. Float.min 4.0 grow)
      end
      else begin
        let shrink = safety *. Float.pow (1.0 /. !err) 0.25 in
        h := Float.max (h_min *. 2.0) (hstep *. Float.max 0.1 shrink);
        if !h <= h_min *. 4.0 then accept (!t +. hstep) y4
      end
    done;
    (Array.of_list (List.rev !times), Array.of_list (List.rev !states))
  in
  let after () =
    let tr = Ode.Integrate.simulate ~params ~init ~t_end sys in
    (tr.Ode.Integrate.times, tr.Ode.Integrate.states)
  in
  (* One timed run integrates [reps] trajectories: a single one is too
     short for the clock. *)
  let reps = if quick then 3 else 8 in
  let rec trajectories f n =
    let trace = f () in
    if n <= 1 then trace else trajectories f (n - 1)
  in
  let per_trajectory r =
    let ns = r.wall_s /. float_of_int reps *. 1e9 in
    { r with values = [ ("ns_per_trajectory", ns) ] }
  in
  let smc_alloc =
    List.map
      (fun (_, r) -> per_trajectory r)
      (measure ~section:"C1" ~workload:"smc-alloc" ~rounds
         ~answer:(fun trace ->
           Digest.to_hex (Digest.string (Marshal.to_string trace [])))
         [ config "allocating steppers (before)" before;
           config "in-place loop (after)" after ]
         (fun f -> trajectories f reps))
  in
  Report.print
    [ Report.table
        ~header:[ "smc float path"; "ns/trajectory"; "speedup"; "check" ]
        (List.mapi
           (fun i r ->
             [ r.config; Fmt.str "%.0f" (List.assoc "ns_per_trajectory" r.values);
               Fmt.str "%.2fx" r.speedup;
               (if i = 0 then "bit-identical traces" else "") ])
           smc_alloc) ];
  write_json "BENCH_cache.json" ~section:"C1" ~quick ~rounds
    ~meta:[ ("jobs", jint 1); ("policy_on", Json.Str "exact") ]
    (List.concat_map (fun (_, off, on) -> [ off; on ]) kernels @ smc_alloc)

(* ------------------------------------------------------------------ *)
(* O1 / J1: observability overhead on a box-churn worst case           *)
(* ------------------------------------------------------------------ *)

(* The workload of both overhead guards: a tangency decide and a ring
   paving, whose per-box work is sub-microsecond, so per-span and
   per-record costs show at full strength.  It must dwarf clock noise
   for the overhead ratio to mean anything, so even quick mode keeps
   delta small enough for a few tens of ms per run.  Decide and pave
   read no cache, so every run repeats the full search. *)
let box_churn ~quick =
  let tangency = Expr.Parse.formula "x^2 + y^2 = 1 and x*y = 1/2" in
  let tangency_box =
    Box.of_list [ ("x", I.make 0.0 2.0); ("y", I.make 0.0 2.0) ]
  in
  let ring = Expr.Parse.formula "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2" in
  let rbox = Box.of_list [ ("x", I.make (-1.5) 1.5); ("y", I.make (-1.5) 1.5) ] in
  let dcfg =
    { Icp.Solver.default_config with
      delta = (if quick then 3e-4 else 1e-4);
      epsilon = (if quick then 3e-5 else 1e-5) }
  in
  let pcfg =
    { Icp.Solver.default_config with epsilon = (if quick then 0.02 else 0.01) }
  in
  fun () ->
    let d = Icp.Solver.decide ~config:dcfg tangency tangency_box in
    let p = Icp.Solver.pave ~config:pcfg ring rbox in
    let witness =
      match d with Icp.Solver.Delta_sat w -> [ w.Icp.Solver.box ] | _ -> []
    in
    Printf.sprintf "%s, %d/%d/%d leaves, digest %s" (verdict_kind d)
      (List.length p.sat) (List.length p.unsat) (List.length p.undecided)
      (boxes_digest [ witness; p.sat; p.unsat; p.undecided ])

let budget = 1.05

let budget_line what overhead =
  if overhead > budget then
    Report.text "OVER BUDGET: %s overhead %.1f%% exceeds the 5%% budget" what
      ((overhead -. 1.0) *. 100.0)
  else
    Report.text "%s overhead %.1f%% (budget 5%%)" what
      ((overhead -. 1.0) *. 100.0)

(* Honesty guard for the telemetry subsystem: the box-churn workload
   with telemetry fully disabled, with metrics only (counters +
   histograms, no trace), and with tracing on.  The answers must be
   identical — instrumentation observes the search, it never steers it —
   and the overhead ratios land in BENCH_telemetry.json with an explicit
   over_budget flag when metrics-only costs more than 5% over disabled
   (recorded as measured, not hidden).  The trace ring is reset once, so
   its event and drop counts cover every traced round; the per-span
   breakdown comes from one extra untimed metrics run. *)

let o1 ?(quick = false) () =
  section
    (if quick then "O1  Telemetry overhead: off vs metrics vs trace (quick)"
     else "O1  Telemetry overhead: off vs metrics vs trace");
  let rounds = if quick then 4 else 6 in
  let run = box_churn ~quick in
  Telemetry.reset ();
  let records =
    List.map snd
      (measure ~section:"O1" ~workload:"box-churn" ~rounds ~answer:Fun.id
         [ config "disabled" ();
           config ~enter:(fun () -> Telemetry.set_metrics true)
             ~leave:Telemetry.disable "metrics" ();
           config
             ~enter:(fun () ->
               Telemetry.set_metrics true;
               Telemetry.set_trace true)
             ~leave:Telemetry.disable "metrics + trace" () ]
         run)
  in
  let trace_events = Telemetry.Trace.events_recorded () in
  let trace_dropped = Telemetry.Trace.events_dropped () in
  Telemetry.reset ();
  Telemetry.set_metrics true;
  let breakdown =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        ignore (run ());
        Telemetry.Metrics.histograms ())
  in
  Telemetry.reset ();
  let overhead r = 1.0 /. r.speedup in
  let metrics_overhead, trace_overhead =
    match records with
    | [ _; met; trc ] -> (overhead met, overhead trc)
    | _ -> assert false
  in
  Report.print
    [ Report.table
        ~header:[ "mode"; "wall"; "vs disabled"; "check" ]
        (List.mapi
           (fun i r ->
             [ r.config; secs r.wall_s; Fmt.str "%.2fx" (overhead r);
               (if i < 2 then "identical results"
                else Fmt.str "%d events (%d dropped)" trace_events trace_dropped) ])
           records);
      budget_line "metrics-only" metrics_overhead ];
  write_json "BENCH_telemetry.json" ~section:"O1" ~quick ~rounds
    ~meta:
      [ ("budget", Json.Num budget);
        ("metrics_overhead", Json.Num metrics_overhead);
        ("trace_overhead", Json.Num trace_overhead);
        ("over_budget", Json.Bool (metrics_overhead > budget));
        ("trace_events", jint trace_events);
        ("trace_dropped", jint trace_dropped);
        ( "breakdown",
          Json.Arr
            (List.map
               (fun (name, s) ->
                 Json.Obj
                   [ ("span", Json.Str name);
                     ("count", jint s.Telemetry.Histogram.count);
                     ("mean_ns", Json.Num (Float.round (Telemetry.Histogram.mean s)));
                     ("p50_ns", jint (Telemetry.Histogram.quantile 0.5 s));
                     ("p90_ns", jint (Telemetry.Histogram.quantile 0.9 s)) ])
               breakdown) ) ]
    records

(* The O1 discipline applied to the provenance journal: the box-churn
   workload with journaling off and with the memory sink recording the
   full search DAG.  Answers must be identical (the journal observes the
   search, it never steers it) and the slowdown is reported honestly
   against the same 5% budget, alongside the record volume of one extra
   journaled run — the journal writes one NDJSON line per search event,
   so its cost scales with boxes processed, not with wall-clock. *)
let j1 ?(quick = false) () =
  section
    (if quick then "J1  Journal overhead: off vs memory sink (quick)"
     else "J1  Journal overhead: off vs memory sink");
  let rounds = if quick then 4 else 6 in
  let run = box_churn ~quick in
  let sink s =
    config
      ~enter:(fun () ->
        Journal.set_sink s;
        Journal.reset ())
      ~leave:(fun () -> Journal.set_sink Journal.Off)
  in
  let records =
    List.map snd
      (measure ~section:"J1" ~workload:"box-churn" ~rounds ~answer:Fun.id
         [ sink Journal.Off "disabled" (); sink Journal.Memory "memory sink" () ]
         run)
  in
  Journal.set_sink Journal.Memory;
  Journal.reset ();
  ignore (run ());
  let doc = Journal.contents () in
  let dropped = Journal.dropped () in
  Journal.set_sink Journal.Off;
  Journal.reset ();
  let records_n =
    String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 doc
  in
  let overhead =
    match records with [ _; jrn ] -> 1.0 /. jrn.speedup | _ -> assert false
  in
  Report.print
    [ Report.table
        ~header:[ "mode"; "wall"; "vs disabled"; "check" ]
        (List.mapi
           (fun i r ->
             [ r.config; secs r.wall_s;
               Fmt.str "%.2fx" (1.0 /. r.speedup);
               (if i = 0 then "identical results"
                else
                  Fmt.str "%d records, %d KiB (%d dropped)" records_n
                    (String.length doc / 1024) dropped) ])
           records);
      budget_line "journal" overhead ];
  write_json "BENCH_journal.json" ~section:"J1" ~quick ~rounds
    ~meta:
      [ ("budget", Json.Num budget);
        ("overhead", Json.Num overhead);
        ("over_budget", Json.Bool (overhead > budget));
        ("records", jint records_n);
        ("bytes", jint (String.length doc));
        ("dropped", jint dropped) ]
    records

(* ------------------------------------------------------------------ *)
(* N1: the derivative layer off vs on; AF1: the affine ODE field      *)
(* ------------------------------------------------------------------ *)

(* Dependency-rich decide and pave workloads of the derivative-layer
   ablation — terms where variables occur repeatedly, so the natural
   interval extension is loose and a first-order expansion has
   something to win. *)
let layer_workloads ~quick =
  let dcfg =
    { Icp.Solver.default_config with
      delta = (if quick then 1e-3 else 1e-4);
      epsilon = (if quick then 1e-4 else 1e-5) }
  in
  let pcfg =
    { Icp.Solver.default_config with epsilon = (if quick then 0.02 else 0.01) }
  in
  let box l = Box.of_list (List.map (fun (x, lo, hi) -> (x, I.make lo hi)) l) in
  [ (* x and y each satisfy the expanded cubic t^3 - 2t^2 + 1.25t =
       0.25, whose real solutions are t = 1 and the double root t = 0.5;
       no pair of solutions is 0.4-separated in the square, so the
       conjunction is unsat.  The cubic mentions its variable three
       times — exactly the dependency that makes the natural extension
       loose. *)
    ( "decide-cubic-separation", `Decide dcfg,
      "x^3 - 2*x^2 + 1.25*x = 0.25 and y^3 - 2*y^2 + 1.25*y = 0.25 and \
       (x - y)^2 >= 0.3",
      box [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] );
    (* Two Michaelis–Menten channels sharing one rate law
       v(s) = 1.2 s / (0.4 + s); on the conservation line s1 + s2 = 1
       the total rate peaks at 4/3 < 1.35, so the demand is unsat.  Each
       substrate occurs in both numerator and denominator of its rate. *)
    ( "decide-mm-kinetics", `Decide dcfg,
      "1.2*s1/(0.4 + s1) + 1.2*s2/(0.4 + s2) = 1.35 and s1 + s2 = 1",
      box [ ("s1", 0.0, 1.0); ("s2", 0.0, 1.0) ] );
    (* Biopsy-style parameter fit: admissible (k, a) for the
       impulse-response model y(t) = a k t e^{-kt} against two data
       bands (t = 1 and t = 3) — the algebraic form of a calibration
       paving.  k occurs twice per observation. *)
    ( "pave-impulse-fit", `Pave pcfg,
      "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and \
       3*a*k*exp(-3*k) >= 0.1 and 3*a*k*exp(-3*k) <= 0.3",
      box [ ("k", 0.05, 2.5); ("a", 0.2, 3.0) ] ) ]

(* The one contradiction check of the layer ablations.  Two pavings of
   the same box are proofs: a sat leaf of one sharing volume with an
   unsat leaf of the other would be two contradictory proofs, not
   noise.  Every sat leaf must also hold at its center (a leaf a
   tightened certifier proved sat earlier is a new proof, not a
   reclassification), and both runs must agree on feasibility. *)
let pavings_agree formula (a : Icp.Solver.paving) (b : Icp.Solver.paving) =
  let overlaps sats unsats =
    List.exists
      (fun s -> List.exists (fun u -> Box.volume (Box.inter s u) > 0.0) unsats)
      sats
  in
  let centers_hold (p : Icp.Solver.paving) =
    List.for_all
      (fun leaf ->
        Expr.Formula.eval_cert (Box.midpoint leaf) formula
        <> Expr.Formula.Impossible)
      p.sat
  in
  (not (overlaps a.sat b.unsat || overlaps b.sat a.unsat))
  && centers_hold a && centers_hold b
  && (a.sat <> []) = (b.sat <> [])

(* Run every layer workload with [set false] then [set true] (decide
   and pave read no cache: each run does its own full search).  Decide arms must
   return the same verdict kind; pave arms must pass [pavings_agree].
   Returns (kind, off record, on record) per workload. *)
let layer_ablation ~section ~quick ~rounds ~set =
  let arms = [ config "off" false; config "on" true ] in
  let pair kind = function
    | [ (_, off); (_, on) ] -> (kind, off, on)
    | _ -> assert false
  in
  List.map
    (fun (name, search, text, box) ->
      let formula = Expr.Parse.formula text in
      match search with
      | `Decide config ->
          pair "decide"
            (measure ~section ~workload:name ~rounds
               ~answer:(fun (r, _) -> verdict_kind r)
               ~counts:(fun (_, s) -> search_counts s)
               arms
               (fun on ->
                 set on;
                 Icp.Solver.decide_with_stats ~config formula box))
      | `Pave config ->
          pair "pave"
            (measure ~section ~workload:name ~rounds
               ~answer:(fun ((p : Icp.Solver.paving), _) ->
                 if p.sat <> [] then "feasible" else "infeasible")
               ~counts:(fun (_, s) -> search_counts s)
               ~agree:(fun (a, _) (b, _) -> pavings_agree formula a b)
               arms
               (fun on ->
                 set on;
                 Icp.Solver.pave_with_stats ~config formula box)))
    (layer_workloads ~quick)

let print_ablation rows =
  Report.print
    [ Report.table
        ~header:
          [ "workload"; "kind"; "verdict"; "boxes off"; "boxes on";
            "reduction"; "wall off"; "wall on" ]
        (List.map
           (fun (kind, off, on) ->
             let b0 = count off "boxes_processed" in
             let b1 = count on "boxes_processed" in
             [ off.workload; kind; off.answer; string_of_int b0; string_of_int b1;
               Fmt.str "%.2fx" (float_of_int b0 /. float_of_int b1);
               secs off.wall_s; secs on.wall_s ])
           rows) ]

let ablation_records rows = List.concat_map (fun (_, off, on) -> [ off; on ]) rows

(* N1: the derivative layer (Icp.Deriv: mean-value refutation, interval
   Newton contraction, smear branching) against the plain HC4 search;
   the reported reduction in boxes processed is bought without changing
   any answer. *)
let n1 ?(quick = false) () =
  section
    (if quick then "N1  Derivative pruning off vs on (quick)"
     else "N1  Derivative pruning: mean-value/Newton + smear, off vs on");
  Fun.protect ~finally:Icp.Deriv.clear_enabled_override @@ fun () ->
  let rounds = if quick then 2 else 3 in
  let rows =
    layer_ablation ~section:"N1" ~quick ~rounds ~set:Icp.Deriv.set_enabled
  in
  print_ablation rows;
  write_json "BENCH_newton.json" ~section:"N1" ~quick ~rounds
    (ablation_records rows)

(* AF1: the affine-form layer (Interval.Affine: noise-symbol evaluation
   of the ODE field, intersected into the Picard/Taylor remainder boxes)
   against the plain interval tube.  The field is the one place the
   switch reaches — decide and pave run HC4 on plain intervals — so the
   section is a single flow workload.  It records tube widths, not
   verdicts: the affine pass may only tighten the enclosure, so it must
   not lose completeness. *)
let af1 ?(quick = false) () =
  section
    (if quick then "AF1  Affine arithmetic off vs on (quick)"
     else "AF1  Affine arithmetic: ODE field evaluation, off vs on");
  Fun.protect ~finally:Interval.Affine.clear_enabled_override @@ fun () ->
  let rounds = if quick then 2 else 3 in
  (* Validated flow of the logistic equation from an interval initial
     set.  x'(t) = x(1-x) mentions x twice, so the interval remainder
     boxes over-rotate where the affine pass cancels. *)
  let sys =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "x*(1 - x)") ]
  in
  let init = Box.of_list [ ("x", I.make 0.2 0.35) ] in
  let t_end = if quick then 2.0 else 3.0 in
  let widths tube =
    [ ("final_width", Box.width tube.Ode.Enclosure.final);
      ("hull_width", Box.width (Ode.Enclosure.tube_hull tube)) ]
  in
  let ode =
    List.map snd
      (measure ~section:"AF1" ~workload:"ode-logistic-flow" ~rounds
         ~answer:(fun tube ->
           if tube.Ode.Enclosure.complete then "complete" else "incomplete")
         ~counts:(fun tube -> [ ("steps", List.length tube.Ode.Enclosure.steps) ])
         ~values:(fun tube -> ("t_end", t_end) :: widths tube)
         ~agree:(fun off on ->
           on.Ode.Enclosure.complete || not off.Ode.Enclosure.complete)
         [ config "off" false; config "on" true ]
         (fun on ->
           Interval.Affine.set_enabled on;
           Ode.Enclosure.flow ~params:Box.empty_map ~init ~t_end sys))
  in
  (match ode with
  | [ off; on ] ->
      let w r = List.assoc "final_width" r.values in
      let w0 = w off and w1 = w on in
      Report.print
        [ Report.text "%s (t_end = %g): final width %.3g -> %.3g (%s), %d -> %d steps"
            off.workload t_end w0 w1
            (if Float.is_finite (w0 /. w1) then Fmt.str "%.2fx" (w0 /. w1)
             else "interval tube diverged, affine bounded")
            (count off "steps") (count on "steps") ]
  | _ -> assert false);
  write_json "BENCH_affine.json" ~section:"AF1" ~quick ~rounds ode

(* ------------------------------------------------------------------ *)
(* Part 2: Bechamel kernel timing                                      *)
(* ------------------------------------------------------------------ *)

let bechamel_tests () =
  let open Bechamel in
  let stage = Staged.stage in
  let icp_sqrt2 =
    let f = Expr.Parse.formula "x^2 = 2" in
    let box = Box.of_list [ ("x", I.make 0.0 2.0) ] in
    Test.make ~name:"s1/icp-sqrt2" (stage (fun () -> Icp.Solver.decide f box))
  in
  let icp_unsat =
    let f = Expr.Parse.formula "x^2 + y^2 <= 1 and x + y >= 3" in
    let box = Box.of_list [ ("x", I.make (-2.0) 2.0); ("y", I.make (-2.0) 2.0) ] in
    Test.make ~name:"s1/icp-geom-unsat" (stage (fun () -> Icp.Solver.decide f box))
  in
  let ode_rk4 =
    let sys =
      Ode.System.of_strings ~vars:[ "x"; "y" ] ~params:[ "w" ]
        ~rhs:[ ("x", "w*y"); ("y", "-w*x") ]
    in
    Test.make ~name:"ode/rk4-oscillator"
      (stage (fun () ->
           Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.01)
             ~params:[ ("w", 2.0) ]
             ~init:[ ("x", 1.0); ("y", 0.0) ]
             ~t_end:5.0 sys))
  in
  let enclosure_decay =
    let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ] in
    let init = Box.of_list [ ("x", I.of_float 1.0) ] in
    Test.make ~name:"a1/enclosure-decay"
      (stage (fun () -> Ode.Enclosure.flow ~params:Box.empty_map ~init ~t_end:1.0 sys))
  in
  let hybrid_sim =
    let h = Biomodels.Fenton_karma.automaton () in
    Test.make ~name:"e1/fk-simulate"
      (stage (fun () -> Hybrid.Simulate.simulate ~params:[] ~init:[] ~t_end:400.0 h))
  in
  let bcf_sim =
    Test.make ~name:"e2/bcf-apd"
      (stage (fun () -> Biomodels.Bueno_cherry_fenton.apd ~params:[] ~t_end:600.0 ()))
  in
  let reach_decay =
    let a =
      Hybrid.Automaton.of_system
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])
    in
    let pb =
      E.create
        ~param_box:(Box.of_list [ ("k", I.make 0.1 3.0) ])
        ~goal:{ E.goal_modes = []; predicate = Expr.Parse.formula "x <= 0.3" }
        ~k:0 ~time_bound:1.0 a
    in
    Test.make ~name:"e3/reach-param-decay" (stage (fun () -> C.check pb))
  in
  let biopsy =
    let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ] in
    let data =
      [ Synth.Data.point ~time:0.5 ~var:"x" ~value:(Float.exp (-0.5)) ~tolerance:0.08;
        Synth.Data.point ~time:1.0 ~var:"x" ~value:(Float.exp (-1.0)) ~tolerance:0.08 ]
    in
    let prob =
      Synth.Biopsy.problem ~sys
        ~param_box:(Box.of_list [ ("k", I.make 0.2 3.0) ])
        ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
        ~data
    in
    Test.make ~name:"e7/biopsy-decay"
      (stage (fun () ->
           Synth.Biopsy.synthesize
             ~config:{ Synth.Biopsy.default_config with epsilon = 0.1 }
             prob))
  in
  let bltl_monitor =
    let tr =
      Ode.Integrate.simulate ~method_:(Ode.Integrate.Rk4 0.01) ~params:[]
        ~init:[ ("x", 1.0) ] ~t_end:2.0
        (Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ])
    in
    let view = Smc.Bltl.of_trace tr in
    let prop =
      Smc.Bltl.Until (1.5, Smc.Bltl.prop "x >= 0.3", Smc.Bltl.prop "x <= 0.5")
    in
    Test.make ~name:"e8/bltl-monitor" (stage (fun () -> Smc.Bltl.holds view prop))
  in
  let cegis =
    Test.make ~name:"e6/cegis-rotation"
      (stage (fun () ->
           Lyapunov.Cegis.synthesize
             (Lyapunov.Cegis.problem
                ~region:(Biomodels.Classics.unit_box [ "x"; "y" ])
                ~template:(Lyapunov.Template.quadratic [ "x"; "y" ])
                Biomodels.Classics.damped_rotation)))
  in
  let tbi_policy =
    Test.make ~name:"e4/tbi-policy-sim"
      (stage (fun () ->
           Biomodels.Tbi.simulate_policy ~theta1:1.0 ~theta2:1.0 ~t_end:40.0 ()))
  in
  let prostate_sim =
    Test.make ~name:"e3/prostate-ias-sim"
      (stage (fun () ->
           Biomodels.Prostate.simulate_therapy ~r0:4.0 ~r1:10.0 ~t_end:800.0 ()))
  in
  let robustness_one =
    let make (a, b) =
      Biomodels.Bueno_cherry_fenton.automaton ~stimulus:a ~stimulus_width:(b -. a) ()
    in
    Test.make ~name:"e5/robustness-one-range"
      (stage (fun () ->
           Core.Robustness.classify
             ~goal:(Biomodels.Bueno_cherry_fenton.excitation_goal ())
             ~k:3 ~time_bound:100.0 make (0.0, 0.05)))
  in
  [ icp_sqrt2; icp_unsat; ode_rk4; enclosure_decay; hybrid_sim; bcf_sim;
    reach_decay; biopsy; bltl_monitor; cegis; tbi_policy; prostate_sim;
    robustness_one ]

let run_bechamel () =
  section "Kernel timing (Bechamel OLS, ns/run)";
  let open Bechamel in
  let open Toolkit in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None () in
  let tests = Test.make_grouped ~name:"biomc" (bechamel_tests ()) in
  let raw = Benchmark.all cfg instances tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name ols_result ->
      let est =
        match Analyze.OLS.estimates ols_result with
        | Some [ e ] -> e
        | _ -> nan
      in
      rows := (name, est) :: !rows)
    results;
  let rows =
    List.sort (fun (a, _) (b, _) -> String.compare a b) !rows
    |> List.map (fun (name, ns) ->
           [ name;
             (if Float.is_nan ns then "-"
              else if ns > 1e9 then Fmt.str "%.2f s" (ns /. 1e9)
              else if ns > 1e6 then Fmt.str "%.2f ms" (ns /. 1e6)
              else if ns > 1e3 then Fmt.str "%.2f us" (ns /. 1e3)
              else Fmt.str "%.0f ns" ns) ])
  in
  Report.print [ Report.table ~header:[ "kernel"; "time/run" ] rows ]

(* CLI: `--quick` runs the quick-aware sections (c1/o1/j1/n1/af1/p1)
   in their reduced configurations (the CI smoke job: fast, still
   writes the BENCH_*.json dumps); `--only` takes a comma-separated
   list of section names (e.g. `--only e7,c1,n1`) and
   runs exactly those, quick-aware sections included — an unknown name
   is rejected up front on stderr with the known sections listed.  No
   flags = everything. *)

let () =
  let argv = Array.to_list Sys.argv in
  let quick = List.mem "--quick" argv in
  let only =
    let rec go = function
      | "--only" :: v :: _ -> Some (String.split_on_char ',' v)
      | _ :: rest -> go rest
      | [] -> None
    in
    go argv
  in
  let sections =
    [ ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5); ("e6", e6);
      ("e7", e7); ("e8", e8); ("e9", e9); ("s1", s1); ("a1", a1); ("a2", a2);
      ("a3", a3); ("a4", a4); ("p1", fun () -> p1 ~quick ());
      ("c1", fun () -> c1 ~quick ());
      ("o1", fun () -> o1 ~quick ());
      ("j1", fun () -> j1 ~quick ());
      ("n1", fun () -> n1 ~quick ());
      ("af1", fun () -> af1 ~quick ());
      ("bechamel", run_bechamel) ]
  in
  let chosen =
    match only with
    | Some names ->
        (* Reject every unknown name before running anything: a typo in
           a CI invocation should fail fast and say what is on offer,
           not crash mid-suite with a backtrace. *)
        let unknown =
          List.filter (fun n -> not (List.mem_assoc n sections)) names
        in
        if unknown <> [] then begin
          Printf.eprintf
            "bench: unknown section%s %s\nknown sections: %s\n"
            (if List.length unknown = 1 then "" else "s")
            (String.concat ", "
               (List.map (Printf.sprintf "%S") unknown))
            (String.concat ", " (List.map fst sections));
          exit 2
        end;
        List.filter (fun (n, _) -> List.mem n names) sections
    | None ->
        if quick then
          List.filter
            (fun (n, _) ->
              List.mem n [ "c1"; "o1"; "j1"; "n1"; "af1"; "p1" ])
            sections
        else sections
  in
  Report.print
    [ Report.heading "biomc benchmark harness";
      Report.text
        "Part 1 reproduces each experiment's table/series; Part 2 times kernels." ];
  List.iter (fun (_, f) -> f ()) chosen
