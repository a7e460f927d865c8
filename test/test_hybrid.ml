(* Tests for hybrid automata: construction, the mode graph, and
   trajectory simulation with event detection. *)

module I = Interval.Ia
module Box = Interval.Box
module P = Expr.Parse
module A = Hybrid.Automaton
module G = Hybrid.Graph
module S = Hybrid.Simulate

let pt x = I.of_float x

(* Bouncing ball: h' = v, v' = -g; bounce (v := -c v) when h <= 0, v < 0. *)
let ball ?(c = 0.8) () =
  A.create ~vars:[ "h"; "v" ] ~params:[ "g" ]
    ~modes:
      [ A.mode ~name:"fall"
          ~flow:[ ("h", P.term "v"); ("v", P.term "-g") ]
          ~invariant:(P.formula "h >= -0.001") () ]
    ~jumps:
      [ A.jump ~source:"fall" ~target:"fall"
          ~guard:(P.formula "h <= 0 and v < 0")
          ~reset:[ ("h", P.term "0"); ("v", P.term (Printf.sprintf "-%g * v" c)) ]
          () ]
    ~init_mode:"fall"
    ~init:(Box.of_list [ ("h", pt 1.0); ("v", pt 0.0) ])

(* Thermostat: heating towards 30, cooling towards 10, thresholds 18/22. *)
let thermostat =
  A.create ~vars:[ "x" ] ~params:[]
    ~modes:
      [ A.mode ~name:"heat" ~flow:[ ("x", P.term "30 - x") ]
          ~invariant:(P.formula "x <= 22.5") ();
        A.mode ~name:"cool" ~flow:[ ("x", P.term "10 - x") ]
          ~invariant:(P.formula "x >= 17.5") () ]
    ~jumps:
      [ A.jump ~source:"heat" ~target:"cool" ~guard:(P.formula "x >= 22") ();
        A.jump ~source:"cool" ~target:"heat" ~guard:(P.formula "x <= 18") () ]
    ~init_mode:"heat"
    ~init:(Box.of_list [ ("x", pt 20.0) ])

(* ---- Construction ---- *)

let test_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | (_ : A.t) -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  let m = A.mode ~name:"m" ~flow:[ ("x", P.term "1") ] () in
  let ok_init = Box.of_list [ ("x", pt 0.0) ] in
  expect_invalid "no modes" (fun () ->
      A.create ~vars:[ "x" ] ~params:[] ~modes:[] ~jumps:[] ~init_mode:"m" ~init:ok_init);
  expect_invalid "bad init mode" (fun () ->
      A.create ~vars:[ "x" ] ~params:[] ~modes:[ m ] ~jumps:[] ~init_mode:"nope"
        ~init:ok_init);
  expect_invalid "duplicate mode" (fun () ->
      A.create ~vars:[ "x" ] ~params:[] ~modes:[ m; m ] ~jumps:[] ~init_mode:"m"
        ~init:ok_init);
  expect_invalid "missing flow" (fun () ->
      A.create ~vars:[ "x"; "y" ] ~params:[] ~modes:[ m ] ~jumps:[] ~init_mode:"m"
        ~init:(Box.of_list [ ("x", pt 0.0); ("y", pt 0.0) ]));
  expect_invalid "unbound in flow" (fun () ->
      A.create ~vars:[ "x" ] ~params:[]
        ~modes:[ A.mode ~name:"m" ~flow:[ ("x", P.term "q") ] () ]
        ~jumps:[] ~init_mode:"m" ~init:ok_init);
  expect_invalid "jump to unknown mode" (fun () ->
      A.create ~vars:[ "x" ] ~params:[] ~modes:[ m ]
        ~jumps:[ A.jump ~source:"m" ~target:"ghost" ~guard:Expr.Formula.tt () ]
        ~init_mode:"m" ~init:ok_init);
  expect_invalid "init missing var" (fun () ->
      A.create ~vars:[ "x" ] ~params:[] ~modes:[ m ] ~jumps:[] ~init_mode:"m"
        ~init:Box.empty_map)

let test_accessors () =
  let b = ball () in
  Alcotest.(check (list string)) "vars" [ "h"; "v" ] (A.vars b);
  Alcotest.(check (list string)) "params" [ "g" ] (A.params b);
  Alcotest.(check (list string)) "modes" [ "fall" ] (A.mode_names b);
  Alcotest.(check int) "dim" 2 (A.dim b);
  Alcotest.(check int) "jumps from fall" 1 (List.length (A.jumps_from b "fall"));
  Alcotest.check_raises "unknown mode"
    (Invalid_argument "Automaton.find_mode: unknown mode \"x\"") (fun () ->
      ignore (A.find_mode b "x"))

let test_mode_system () =
  let sys = A.mode_system thermostat "heat" in
  let f = Ode.System.compile sys in
  Alcotest.(check (float 1e-12)) "heat rhs" 10.0 (f 0.0 [| 20.0 |]).(0)

let test_bind_params () =
  let b = A.bind_params [ ("g", 9.8) ] (ball ()) in
  Alcotest.(check (list string)) "no params" [] (A.params b);
  let sys = A.mode_system b "fall" in
  let f = Ode.System.compile sys in
  Alcotest.(check (float 1e-12)) "bound gravity" (-9.8) (f 0.0 [| 1.0; 0.0 |]).(1)

let test_of_system () =
  let sys = Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ] in
  let h = A.of_system ~init:(Box.of_list [ ("x", pt 1.0) ]) sys in
  Alcotest.(check (list string)) "single mode" [ "m0" ] (A.mode_names h);
  Alcotest.(check int) "no jumps" 0 (List.length (A.jumps h))

(* ---- Mode graph ---- *)

let chain =
  (* 0 -> A -> B -> 0 and 0 -> 1 (dead end) *)
  let m name = A.mode ~name ~flow:[ ("x", P.term "0") ] () in
  A.create ~vars:[ "x" ] ~params:[]
    ~modes:[ m "0"; m "A"; m "B"; m "1" ]
    ~jumps:
      [ A.jump ~source:"0" ~target:"A" ~guard:Expr.Formula.tt ();
        A.jump ~source:"A" ~target:"B" ~guard:Expr.Formula.tt ();
        A.jump ~source:"B" ~target:"0" ~guard:Expr.Formula.tt ();
        A.jump ~source:"0" ~target:"1" ~guard:Expr.Formula.tt () ]
    ~init_mode:"0"
    ~init:(Box.of_list [ ("x", pt 0.0) ])

let test_graph_reachability () =
  let g = G.of_automaton chain in
  let r = G.reachable_from g "A" in
  Alcotest.(check bool) "A reaches 1" true (G.SSet.mem "1" r);
  Alcotest.(check bool) "A reaches itself via cycle" true (G.SSet.mem "A" r);
  let co = G.co_reachable_to g [ "1" ] in
  Alcotest.(check bool) "B co-reaches 1" true (G.SSet.mem "B" co);
  Alcotest.(check bool) "1 in own co-reach" true (G.SSet.mem "1" co)

let test_graph_paths () =
  let g = G.of_automaton chain in
  let ps = G.paths ~max_jumps:3 g ~source:"0" in
  (* 0; 0A; 01; 0AB; 0AB0 and with 3 jumps also 0AB0? length 4 = 3 jumps. *)
  Alcotest.(check bool) "contains trivial" true (List.mem [ "0" ] ps);
  Alcotest.(check bool) "contains 0AB0" true (List.mem [ "0"; "A"; "B"; "0" ] ps);
  let to_one = G.paths ~targets:[ "1" ] ~max_jumps:3 g ~source:"0" in
  Alcotest.(check bool) "path to 1" true (List.mem [ "0"; "1" ] to_one);
  Alcotest.(check bool) "no 0A... to 1 (A cannot reach 1 in remaining budget)" true
    (List.for_all (fun p -> List.rev p |> List.hd |> String.equal "1") to_one);
  let exact = G.paths_of_length ~jumps:3 g ~source:"0" in
  List.iter
    (fun p -> Alcotest.(check int) "exact length" 4 (List.length p))
    exact;
  Alcotest.(check bool) "0AB0 among exact" true (List.mem [ "0"; "A"; "B"; "0" ] exact)

(* ---- Simulation ---- *)

let test_ball_bounces () =
  let traj =
    S.simulate ~params:[ ("g", 9.8) ] ~init:[] ~t_end:3.0 ~max_jumps:20 (ball ())
  in
  (* First impact of a drop from 1 m: sqrt(2/9.8) ≈ 0.4518 s; several
     bounces fit in 3 s. *)
  Alcotest.(check bool) "several bounces" true (List.length traj.S.path >= 3);
  Alcotest.(check bool) "ends by time" true (traj.S.reason = S.Time_exhausted);
  (* Energy decreases across bounces: final height bound. *)
  let h_final = List.assoc "h" traj.S.final_env in
  Alcotest.(check bool) "below drop height" true (h_final < 1.0);
  Alcotest.(check bool) "above ground" true (h_final >= -0.01)

let test_ball_first_impact_time () =
  let traj =
    S.simulate ~params:[ ("g", 9.8) ] ~init:[] ~t_end:0.6 ~max_jumps:1 (ball ())
  in
  match traj.S.segments with
  | seg1 :: _ :: _ ->
      let t_impact = Ode.Integrate.final_time seg1.S.trace in
      Alcotest.(check (float 1e-3)) "impact at sqrt(2h/g)" (Float.sqrt (2.0 /. 9.8)) t_impact
  | _ -> Alcotest.fail "expected an impact within 0.6 s"

let test_ball_jump_budget () =
  let traj =
    S.simulate ~params:[ ("g", 9.8) ] ~init:[] ~t_end:30.0 ~max_jumps:3 (ball ())
  in
  Alcotest.(check bool) "stopped by budget" true (traj.S.reason = S.Jump_budget);
  Alcotest.(check int) "4 segments = 3 jumps + initial" 4 (List.length traj.S.segments)

let test_thermostat_alternates () =
  let traj = S.simulate ~params:[] ~init:[] ~t_end:10.0 ~max_jumps:50 thermostat in
  Alcotest.(check bool) "multiple switches" true (List.length traj.S.path >= 4);
  let rec alternates = function
    | a :: (b :: _ as rest) -> (not (String.equal a b)) && alternates rest
    | _ -> true
  in
  Alcotest.(check bool) "alternating modes" true (alternates traj.S.path);
  (* Temperature must stay within the hysteresis band (with tolerance). *)
  let ok = ref true in
  List.iter
    (fun (_, v) ->
      match v with
      | Some x -> if x < 17.0 || x > 23.0 then ok := false
      | None -> ())
    (S.sample traj "x" ~n:100);
  Alcotest.(check bool) "stays in band" true !ok

let test_reset_expression () =
  (* Jump doubles x when it reaches 1; x' = 1. *)
  let h =
    A.create ~vars:[ "x" ] ~params:[]
      ~modes:
        [ A.mode ~name:"up" ~flow:[ ("x", P.term "1") ]
            ~invariant:(P.formula "x <= 1.001") () ]
      ~jumps:
        [ A.jump ~source:"up" ~target:"up" ~guard:(P.formula "x >= 1")
            ~reset:[ ("x", P.term "x / 2") ] () ]
      ~init_mode:"up"
      ~init:(Box.of_list [ ("x", pt 0.0) ])
  in
  let traj = S.simulate ~params:[] ~init:[] ~t_end:1.75 ~max_jumps:2 h in
  (* reaches 1 at t=1, resets to 0.5, reaches 1 again at t=1.5, resets,
     then grows to 0.75 by t=1.75 *)
  Alcotest.(check int) "two resets" 3 (List.length traj.S.segments);
  Alcotest.(check (float 0.01)) "final value" 0.75 (List.assoc "x" traj.S.final_env)

let test_simulation_deterministic () =
  let run () = S.simulate ~params:[ ("g", 9.8) ] ~init:[] ~t_end:2.0 (ball ()) in
  let a = run () and b = run () in
  Alcotest.(check (list string)) "same path" a.S.path b.S.path;
  Alcotest.(check (float 0.0)) "same final h"
    (List.assoc "h" a.S.final_env)
    (List.assoc "h" b.S.final_env)

let test_init_override () =
  let traj =
    S.simulate ~params:[ ("g", 9.8) ] ~init:[ ("h", 2.0) ] ~t_end:0.1 (ball ())
  in
  match traj.S.segments with
  | seg :: _ ->
      Alcotest.(check (float 1e-9)) "h starts at 2"
        2.0 (Ode.Integrate.value_at seg.S.trace "h" 0.0)
  | [] -> Alcotest.fail "no segments"

let test_missing_param () =
  Alcotest.check_raises "unbound parameter"
    (Invalid_argument "Simulate: parameter \"g\" not bound") (fun () ->
      ignore (S.simulate ~params:[] ~init:[] ~t_end:1.0 (ball ())))

let test_zeno_detection () =
  (* guard always true with identity reset: an instantaneous jump loop *)
  let h =
    A.create ~vars:[ "x" ] ~params:[]
      ~modes:[ A.mode ~name:"m" ~flow:[ ("x", P.term "1") ] () ]
      ~jumps:[ A.jump ~source:"m" ~target:"m" ~guard:(P.formula "x >= 0") () ]
      ~init_mode:"m"
      ~init:(Box.of_list [ ("x", pt 1.0) ])
  in
  let traj = S.simulate ~params:[] ~init:[] ~t_end:10.0 ~max_jumps:1000 h in
  Alcotest.(check bool) "zeno detected" true (traj.S.reason = S.Zeno);
  Alcotest.(check bool) "stopped early" true (List.length traj.S.path < 50);
  (* the bouncing ball is NOT flagged (dwell times shrink but stay
     positive before the jump budget kicks in) *)
  let ball_traj =
    S.simulate ~params:[ ("g", 9.8) ] ~init:[] ~t_end:2.0 ~max_jumps:10 (ball ())
  in
  Alcotest.(check bool) "ball is not zeno" true (ball_traj.S.reason <> S.Zeno)

let test_value_at_and_sample () =
  let traj = S.simulate ~params:[ ("g", 9.8) ] ~init:[] ~t_end:1.0 (ball ()) in
  (match S.value_at traj "h" 0.2 with
  | Some h ->
      (* h(t) = 1 - g t^2/2 before the first impact; the sampled trace is
         linearly interpolated, so allow quadratic interpolation error. *)
      Alcotest.(check (float 0.02)) "free fall" (1.0 -. (9.8 *. 0.04 /. 2.0)) h
  | None -> Alcotest.fail "value_at before impact");
  let samples = S.sample traj "h" ~n:11 in
  Alcotest.(check int) "sample count" 11 (List.length samples)

(* Under --metrics a simulation is one hybrid.simulate span, and
   hybrid.segments counts its mode visits. *)
let test_simulate_telemetry () =
  let metrics = Telemetry.metrics_on () in
  Telemetry.set_metrics true;
  Fun.protect ~finally:(fun () -> Telemetry.set_metrics metrics) @@ fun () ->
  let spans () =
    match List.assoc_opt "hybrid.simulate" (Telemetry.Metrics.histograms ()) with
    | Some h -> h.Telemetry.Histogram.count
    | None -> 0
  in
  let segments = Telemetry.Counter.make "hybrid.segments" in
  let spans0 = spans () and segs0 = Telemetry.Counter.value segments in
  let traj = S.simulate ~params:[ ("g", 9.8) ] ~init:[] ~t_end:2.0 (ball ()) in
  Alcotest.(check int) "one span" (spans0 + 1) (spans ());
  Alcotest.(check int) "one count per mode visit"
    (segs0 + List.length traj.S.segments)
    (Telemetry.Counter.value segments)

let () =
  Alcotest.run "hybrid"
    [
      ( "automaton",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "accessors" `Quick test_accessors;
          Alcotest.test_case "mode system" `Quick test_mode_system;
          Alcotest.test_case "bind params" `Quick test_bind_params;
          Alcotest.test_case "of_system" `Quick test_of_system;
        ] );
      ( "graph",
        [
          Alcotest.test_case "reachability" `Quick test_graph_reachability;
          Alcotest.test_case "paths" `Quick test_graph_paths;
        ] );
      ( "simulate",
        [
          Alcotest.test_case "ball bounces" `Quick test_ball_bounces;
          Alcotest.test_case "first impact time" `Quick test_ball_first_impact_time;
          Alcotest.test_case "jump budget" `Quick test_ball_jump_budget;
          Alcotest.test_case "thermostat alternates" `Quick test_thermostat_alternates;
          Alcotest.test_case "reset expression" `Quick test_reset_expression;
          Alcotest.test_case "deterministic" `Quick test_simulation_deterministic;
          Alcotest.test_case "init override" `Quick test_init_override;
          Alcotest.test_case "missing param" `Quick test_missing_param;
          Alcotest.test_case "zeno detection" `Quick test_zeno_detection;
          Alcotest.test_case "value_at and sample" `Quick test_value_at_and_sample;
          Alcotest.test_case "span and segment count" `Quick test_simulate_telemetry;
        ] );
    ]
