(* Tests for the ODE substrate: numeric integrators and validated
   enclosures. *)

module I = Interval.Ia
module Box = Interval.Box
module P = Expr.Parse
module Sys = Ode.System
module Int = Ode.Integrate
module Enc = Ode.Enclosure

let decay = Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x") ]

let decay_k = Sys.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]

let oscillator =
  Sys.of_strings ~vars:[ "x"; "y" ] ~params:[ "w" ]
    ~rhs:[ ("x", "w*y"); ("y", "-w*x") ]

(* ---- System construction ---- *)

let test_system_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "missing equation" (fun () ->
      Sys.of_strings ~vars:[ "x"; "y" ] ~params:[] ~rhs:[ ("x", "-x") ]);
  expect_invalid "unbound name" (fun () ->
      Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-z") ]);
  expect_invalid "duplicate var" (fun () ->
      Sys.of_strings ~vars:[ "x"; "x" ] ~params:[] ~rhs:[ ("x", "-x") ]);
  expect_invalid "var is param" (fun () ->
      Sys.of_strings ~vars:[ "x" ] ~params:[ "x" ] ~rhs:[ ("x", "-x") ]);
  expect_invalid "t reserved" (fun () ->
      Sys.of_strings ~vars:[ "t" ] ~params:[] ~rhs:[ ("t", "1") ]);
  expect_invalid "equation for non-state" (fun () ->
      Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x"); ("y", "1") ])

let test_bind_params () =
  let bound = Sys.bind_params [ ("k", 2.0) ] decay_k in
  Alcotest.(check (list string)) "no params left" [] (Sys.params bound);
  let f = Sys.compile bound in
  Alcotest.(check (float 1e-12)) "rhs at x=3" (-6.0) (f 0.0 [| 3.0 |]).(0)

let test_compile_requires_params () =
  Alcotest.check_raises "unbound param"
    (Invalid_argument "System.compile: parameter \"k\" not bound") (fun () ->
      ignore (Sys.compile decay_k 0.0 [| 1.0 |]))

let test_jacobian () =
  match Sys.jacobian oscillator with
  | [ [ dxx; dxy ]; [ dyx; dyy ] ] ->
      let at = [ ("x", 1.0); ("y", 2.0); ("w", 3.0) ] in
      Alcotest.(check (float 1e-12)) "dfx/dx" 0.0 (Expr.Term.eval_env at dxx);
      Alcotest.(check (float 1e-12)) "dfx/dy" 3.0 (Expr.Term.eval_env at dxy);
      Alcotest.(check (float 1e-12)) "dfy/dx" (-3.0) (Expr.Term.eval_env at dyx);
      Alcotest.(check (float 1e-12)) "dfy/dy" 0.0 (Expr.Term.eval_env at dyy)
  | _ -> Alcotest.fail "jacobian shape"

(* ---- Numeric integration ---- *)

let test_decay_rk4 () =
  let tr =
    Int.simulate ~method_:(Int.Rk4 0.01) ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 decay
  in
  Alcotest.(check (float 1e-6)) "e^-1" (Float.exp (-1.0)) (Int.final_state tr).(0);
  Alcotest.(check (float 1e-9)) "final time" 1.0 (Int.final_time tr)

let test_decay_rkf45 () =
  let tr = Int.simulate ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 decay in
  Alcotest.(check (float 1e-4)) "e^-1 adaptive" (Float.exp (-1.0)) (Int.final_state tr).(0)

let test_integrator_order () =
  (* Euler at the same step should be much less accurate than RK4. *)
  let final m =
    (Int.final_state (Int.simulate ~method_:m ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 decay)).(0)
  in
  let exact = Float.exp (-1.0) in
  let err_euler = Float.abs (final (Int.Euler 0.05) -. exact) in
  let err_rk4 = Float.abs (final (Int.Rk4 0.05) -. exact) in
  Alcotest.(check bool) "rk4 beats euler by 100x" true (err_rk4 *. 100.0 < err_euler)

let test_oscillator_energy () =
  let tr =
    Int.simulate ~method_:(Int.Rk4 0.001) ~params:[ ("w", 2.0) ]
      ~init:[ ("x", 1.0); ("y", 0.0) ] ~t_end:3.0 oscillator
  in
  let final = Int.final_state tr in
  let energy = (final.(0) *. final.(0)) +. (final.(1) *. final.(1)) in
  Alcotest.(check (float 1e-6)) "energy conserved" 1.0 energy;
  (* x(t) = cos(w t) *)
  Alcotest.(check (float 1e-5)) "x = cos(2*3)" (Float.cos 6.0) final.(0)

let test_time_dependent () =
  let sys = Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "t") ] in
  let tr = Int.simulate ~method_:(Int.Rk4 0.01) ~params:[] ~init:[ ("x", 0.0) ] ~t_end:2.0 sys in
  Alcotest.(check (float 1e-6)) "x = t^2/2" 2.0 (Int.final_state tr).(0)

let test_trace_accessors () =
  let tr =
    Int.simulate ~method_:(Int.Rk4 0.1) ~params:[ ("w", 1.0) ]
      ~init:[ ("x", 1.0); ("y", 0.0) ] ~t_end:1.0 oscillator
  in
  Alcotest.(check (float 3e-3)) "value_at interpolates" (Float.cos 0.55)
    (Int.value_at tr "x" 0.55);
  let sig_x = Int.signal tr "x" in
  Alcotest.(check int) "signal length" (Int.length tr) (Array.length sig_x);
  Alcotest.(check (float 0.0)) "signal start" 1.0 sig_x.(0);
  (match Int.env_at tr 0 with
  | env ->
      Alcotest.(check (float 0.0)) "env time" 0.0 (List.assoc "t" env);
      Alcotest.(check (float 0.0)) "env x" 1.0 (List.assoc "x" env));
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Integrate.var_index: unknown \"z\"") (fun () ->
      ignore (Int.value_at tr "z" 0.5))

let test_simulate_until () =
  let guard = P.formula "x <= 1/2" in
  let _, ev =
    Int.simulate_until ~method_:(Int.Rk4 0.01) ~params:[] ~init:[ ("x", 1.0) ]
      ~t_end:5.0 ~guard decay
  in
  match ev with
  | None -> Alcotest.fail "decay reaches 1/2"
  | Some e ->
      Alcotest.(check (float 1e-4)) "crossing at ln 2" (Float.log 2.0) e.Int.time;
      Alcotest.(check (float 1e-4)) "state at crossing" 0.5 e.Int.state.(0)

let test_simulate_until_no_event () =
  let guard = P.formula "x >= 2" in
  let _, ev =
    Int.simulate_until ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 ~guard decay
  in
  Alcotest.(check bool) "no event" true (ev = None)

let test_simulate_until_immediate () =
  let guard = P.formula "x >= 1" in
  let _, ev =
    Int.simulate_until ~params:[] ~init:[ ("x", 1.0) ] ~t_end:1.0 ~guard decay
  in
  match ev with
  | None -> Alcotest.fail "guard true initially"
  | Some e -> Alcotest.(check (float 1e-9)) "event at t=0" 0.0 e.Int.time

let test_solve_linear () =
  (* 2x + y = 5, x - y = 1  =>  x = 2, y = 1 *)
  let x = Int.solve_linear [| [| 2.0; 1.0 |]; [| 1.0; -1.0 |] |] [| 5.0; 1.0 |] in
  Alcotest.(check (float 1e-12)) "x" 2.0 x.(0);
  Alcotest.(check (float 1e-12)) "y" 1.0 x.(1);
  (* pivoting required: zero on the diagonal *)
  let z = Int.solve_linear [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] [| 3.0; 7.0 |] in
  Alcotest.(check (float 1e-12)) "pivot x" 7.0 z.(0);
  Alcotest.(check (float 1e-12)) "pivot y" 3.0 z.(1)

(* Stiff test problem: x' = -1000 (x - cos t) - sin t, exact x = cos t
   from x0 = 1.  Explicit Euler at h = 0.01 has amplification |1 - 10| = 9
   per step and explodes; backward Euler is A-stable. *)
let stiff =
  Sys.of_strings ~vars:[ "x" ] ~params:[]
    ~rhs:[ ("x", "-1000 * (x - cos(t)) - sin(t)") ]

let test_implicit_euler_stiff () =
  let tr =
    Int.simulate ~method_:(Int.default_implicit 0.01) ~params:[]
      ~init:[ ("x", 1.0) ] ~t_end:2.0 stiff
  in
  Alcotest.(check (float 1e-3)) "tracks cos t" (Float.cos 2.0) (Int.final_state tr).(0);
  (* explicit Euler at the same step must blow up *)
  let tr_exp =
    Int.simulate ~method_:(Int.Euler 0.01) ~params:[] ~init:[ ("x", 1.0) ]
      ~t_end:2.0 stiff
  in
  let v = (Int.final_state tr_exp).(0) in
  Alcotest.(check bool) "explicit euler diverges" true
    (Float.is_nan v || Float.abs v > 1e3)

let test_implicit_euler_accuracy_nonstiff () =
  (* On the plain decay problem it should agree with the exact solution
     to first order. *)
  let tr =
    Int.simulate ~method_:(Int.default_implicit 0.001) ~params:[]
      ~init:[ ("x", 1.0) ] ~t_end:1.0 decay
  in
  Alcotest.(check (float 1e-3)) "e^-1" (Float.exp (-1.0)) (Int.final_state tr).(0)

(* ---- Validated enclosures ---- *)

let box1 x lo hi = Box.of_list [ (x, I.make lo hi) ]

let test_enclosure_decay () =
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay
  in
  Alcotest.(check bool) "complete" true tube.Enc.complete;
  let final = Box.find "x" tube.Enc.final in
  Alcotest.(check bool) "contains e^-1" true (I.mem (Float.exp (-1.0)) final);
  Alcotest.(check bool) "reasonably tight" true (I.width final < 0.1)

let test_enclosure_contains_trace () =
  (* Every numerically computed point must lie in the tube. *)
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay
  in
  let ok = ref true in
  for i = 0 to 20 do
    let t = float_of_int i /. 20.0 in
    match Enc.state_at tube t with
    | None -> ok := false
    | Some b -> if not (I.mem (Float.exp (-.t)) (Box.find "x" b)) then ok := false
  done;
  Alcotest.(check bool) "exact solution inside tube" true !ok

let test_enclosure_param_box () =
  (* k ∈ [0.5, 1.5]: the final box must contain e^-k for every k. *)
  let tube =
    Enc.flow
      ~params:(box1 "k" 0.5 1.5)
      ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay_k
  in
  Alcotest.(check bool) "complete" true tube.Enc.complete;
  let final = Box.find "x" tube.Enc.final in
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "contains e^-%g" k)
        true
        (I.mem (Float.exp (-.k)) final))
    [ 0.5; 0.8; 1.0; 1.2; 1.5 ]

let test_enclosure_orders () =
  let run order =
    let config = { Enc.default_config with order } in
    let tube = Enc.flow ~config ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:1.0 decay in
    I.width (Box.find "x" tube.Enc.final)
  in
  let w1 = run Enc.Euler_1 and w2 = run Enc.Taylor_2 in
  Alcotest.(check bool) "taylor-2 tighter than euler-1" true (w2 < w1)

let test_enclosure_initial_box () =
  (* An initial box must stay an enclosure of all member trajectories. *)
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 0.8 1.2) ~t_end:1.0 decay
  in
  let final = Box.find "x" tube.Enc.final in
  List.iter
    (fun x0 ->
      Alcotest.(check bool)
        (Printf.sprintf "x0=%g" x0)
        true
        (I.mem (x0 *. Float.exp (-1.0)) final))
    [ 0.8; 0.9; 1.0; 1.1; 1.2 ]

let test_formula_along () =
  let tube =
    Enc.flow ~params:Box.empty_map ~init:(box1 "x" 1.0 1.0) ~t_end:2.0 decay
  in
  (match Enc.formula_along tube ~params:Box.empty_map (P.formula "x <= 1/2") with
  | `Never -> Alcotest.fail "crossing exists"
  | `Always -> Alcotest.fail "not true initially"
  | `Sometimes windows ->
      let covers = List.exists (fun (lo, hi) -> lo <= Float.log 2.0 && Float.log 2.0 <= hi +. 0.1) windows in
      Alcotest.(check bool) "window near ln 2" true covers);
  (match Enc.formula_along tube ~params:Box.empty_map (P.formula "x >= 2") with
  | `Never -> ()
  | _ -> Alcotest.fail "x never reaches 2");
  match Enc.formula_along tube ~params:Box.empty_map (P.formula "x > 0") with
  | `Always -> ()
  | _ -> Alcotest.fail "x stays positive"

let test_enclosure_oscillator () =
  let tube =
    Enc.flow
      ~config:{ Enc.default_config with h = 0.02 }
      ~params:(box1 "w" 1.0 1.0)
      ~init:(Box.of_list [ ("x", I.of_float 1.0); ("y", I.of_float 0.0) ])
      ~t_end:1.5 oscillator
  in
  Alcotest.(check bool) "complete" true tube.Enc.complete;
  Alcotest.(check bool) "contains cos(1.5)" true
    (I.mem (Float.cos 1.5) (Box.find "x" tube.Enc.final))

(* ---- Properties ---- *)

(* ---- Tree-walking flow oracle ----

   The original validated integrator: every Picard iteration rebuilds a
   Box (state ∪ params ∪ t) and tree-walks each right-hand side with
   [Expr.Term.eval_interval].  [Enc.flow] runs the same arithmetic over
   flat interval tapes, operation for operation, so with the affine pass
   off (it only exists on the tape path) the two tubes must agree bit
   for bit. *)

let eval_field terms params time state =
  let box =
    Box.set Sys.time_var time
      (List.fold_left (fun b (k, i) -> Box.set k i b) params (Box.to_list state))
  in
  List.map (fun (v, t) -> (v, Expr.Term.eval_interval box t)) terms

let box_add_scaled state scale deriv =
  List.fold_left
    (fun b (v, d) -> Box.update v (fun x -> I.add x (I.mul scale d)) b)
    state deriv

(* One validated step; [None] when no a-priori enclosure was found. *)
let flow_step (cfg : Enc.config) sys second params t0 h x0 =
  let time_whole = I.make t0 (t0 +. h) in
  let h_itv = I.make 0.0 h in
  let field = Sys.rhs sys in
  let rec picard b k =
    if k > cfg.max_picard then None
    else
      let f_b = eval_field field params time_whole b in
      let next = box_add_scaled x0 h_itv f_b in
      if Box.subset next b then Some b
      else
        let widened =
          Box.map
            (fun i -> I.inflate (cfg.inflation *. (I.width i +. 1e-12)) i)
            (Box.hull b next)
        in
        picard widened (k + 1)
  in
  let seed =
    let f0 = eval_field field params time_whole x0 in
    Box.map (fun i -> I.inflate (cfg.inflation *. (I.width i +. 1e-9)) i)
      (box_add_scaled x0 h_itv f0)
    |> Box.hull x0
  in
  match picard seed 0 with
  | None -> None
  | Some b ->
      let at_end =
        match cfg.order with
        | Enc.Euler_1 ->
            let f_b = eval_field field params time_whole b in
            box_add_scaled x0 (I.of_float h) f_b
        | Enc.Taylor_2 ->
            let f_x0 = eval_field field params (I.of_float t0) x0 in
            let d2_b = eval_field second params time_whole b in
            let first = box_add_scaled x0 (I.of_float h) f_x0 in
            Box.inter (box_add_scaled first (I.make 0.0 (0.5 *. h *. h)) d2_b) b
      in
      if Box.is_empty at_end then None
      else
        Some ({ Enc.t_lo = t0; t_hi = t0 +. h; enclosure = b; at_end }, at_end)

let flow_tree (cfg : Enc.config) sys ~params ~init ~t_end =
  let second = if cfg.order = Enc.Taylor_2 then Enc.second_derivative sys else [] in
  let tube steps final t complete =
    { Enc.vars = Sys.vars sys; steps = List.rev steps; final; t_end = t; complete }
  in
  let rec go t x h steps =
    if t >= t_end -. 1e-12 then tube steps x t true
    else if Box.width x > cfg.max_width then tube steps x t false
    else
      let h = Float.min h (t_end -. t) in
      match flow_step cfg sys second params t h x with
      | Some (step, x') -> go step.Enc.t_hi x' cfg.h (step :: steps)
      | None ->
          if h <= cfg.h_min then tube steps x t false else go t x (h /. 2.0) steps
  in
  go 0.0 init cfg.h []

let test_flow_matches_tree_oracle () =
  Interval.Affine.set_enabled false;
  Fun.protect ~finally:Interval.Affine.clear_enabled_override @@ fun () ->
  let same_box what a b =
    if not (Box.equal a b) then
      Alcotest.failf "%s: tape %s <> tree %s" what (Box.to_string a)
        (Box.to_string b)
  in
  let check name sys ~params ~init ~t_end =
    List.iter
      (fun order ->
        let config = { Enc.default_config with order } in
        let tape = Enc.flow ~config ~params ~init ~t_end sys in
        let tree = flow_tree config sys ~params ~init ~t_end in
        Alcotest.(check bool) (name ^ " complete") tree.Enc.complete tape.Enc.complete;
        Alcotest.(check (float 0.0)) (name ^ " t_end") tree.Enc.t_end tape.Enc.t_end;
        Alcotest.(check int) (name ^ " steps")
          (List.length tree.Enc.steps) (List.length tape.Enc.steps);
        same_box (name ^ " final") tape.Enc.final tree.Enc.final;
        List.iter2
          (fun (a : Enc.step) (b : Enc.step) ->
            Alcotest.(check (float 0.0)) (name ^ " t_lo") b.t_lo a.t_lo;
            Alcotest.(check (float 0.0)) (name ^ " t_hi") b.t_hi a.t_hi;
            same_box (name ^ " enclosure") a.enclosure b.enclosure;
            same_box (name ^ " at_end") a.at_end b.at_end)
          tape.Enc.steps tree.Enc.steps)
      [ Enc.Euler_1; Enc.Taylor_2 ]
  in
  (* A parameterized oscillator from an interval initial set. *)
  check "oscillator" oscillator
    ~params:(box1 "w" 1.9 2.1)
    ~init:(Box.of_list [ ("x", I.make 0.99 1.01); ("y", I.of_float 0.0) ])
    ~t_end:0.5;
  (* A forced decay whose field reads the time variable, so both the
     field and the Taylor-2 remainder (∂f/∂t) exercise the t input. *)
  check "forced decay"
    (Sys.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "-x + sin(t)") ])
    ~params:Box.empty_map ~init:(box1 "x" 0.9 1.1) ~t_end:1.0

let prop_enclosure_contains_exact =
  let gen =
    QCheck.Gen.(
      float_range (-1.0) 0.5 >>= fun a ->
      float_range 0.5 2.0 >>= fun x0 -> return (a, x0))
  in
  QCheck.Test.make ~count:50 ~name:"linear flow enclosure contains exact solution"
    (QCheck.make ~print:(fun (a, x0) -> Printf.sprintf "a=%g x0=%g" a x0) gen)
    (fun (a, x0) ->
      let sys = Sys.of_strings ~vars:[ "x" ] ~params:[ "a" ] ~rhs:[ ("x", "a*x") ] in
      let tube =
        Enc.flow
          ~params:(box1 "a" a a)
          ~init:(box1 "x" x0 x0)
          ~t_end:1.0 sys
      in
      (not tube.Enc.complete)
      || I.mem (x0 *. Float.exp a) (Box.find "x" tube.Enc.final))

let prop_rk4_matches_exact_linear =
  let gen = QCheck.Gen.float_range (-2.0) 1.0 in
  QCheck.Test.make ~count:50 ~name:"rk4 solves linear ODEs accurately"
    (QCheck.make ~print:string_of_float gen)
    (fun a ->
      let sys = Sys.of_strings ~vars:[ "x" ] ~params:[ "a" ] ~rhs:[ ("x", "a*x") ] in
      let tr =
        Int.simulate ~method_:(Int.Rk4 0.01) ~params:[ ("a", a) ] ~init:[ ("x", 1.0) ]
          ~t_end:1.0 sys
      in
      Float.abs ((Int.final_state tr).(0) -. Float.exp a) < 1e-5)

let qcheck_tests =
  List.map QCheck_alcotest.to_alcotest
    [ prop_enclosure_contains_exact; prop_rk4_matches_exact_linear ]

let () =
  Alcotest.run "ode"
    [
      ( "system",
        [
          Alcotest.test_case "validation" `Quick test_system_validation;
          Alcotest.test_case "bind params" `Quick test_bind_params;
          Alcotest.test_case "compile requires params" `Quick test_compile_requires_params;
          Alcotest.test_case "jacobian" `Quick test_jacobian;
        ] );
      ( "integrate",
        [
          Alcotest.test_case "decay rk4" `Quick test_decay_rk4;
          Alcotest.test_case "decay rkf45" `Quick test_decay_rkf45;
          Alcotest.test_case "integrator order" `Quick test_integrator_order;
          Alcotest.test_case "oscillator energy" `Quick test_oscillator_energy;
          Alcotest.test_case "time dependent" `Quick test_time_dependent;
          Alcotest.test_case "trace accessors" `Quick test_trace_accessors;
          Alcotest.test_case "linear solver" `Quick test_solve_linear;
          Alcotest.test_case "implicit euler stiff" `Quick test_implicit_euler_stiff;
          Alcotest.test_case "implicit euler accuracy" `Quick test_implicit_euler_accuracy_nonstiff;
          Alcotest.test_case "event localization" `Quick test_simulate_until;
          Alcotest.test_case "no event" `Quick test_simulate_until_no_event;
          Alcotest.test_case "immediate event" `Quick test_simulate_until_immediate;
        ] );
      ( "enclosure",
        [
          Alcotest.test_case "decay" `Quick test_enclosure_decay;
          Alcotest.test_case "contains trace" `Quick test_enclosure_contains_trace;
          Alcotest.test_case "parameter box" `Quick test_enclosure_param_box;
          Alcotest.test_case "order comparison" `Quick test_enclosure_orders;
          Alcotest.test_case "initial box" `Quick test_enclosure_initial_box;
          Alcotest.test_case "formula along tube" `Quick test_formula_along;
          Alcotest.test_case "oscillator" `Quick test_enclosure_oscillator;
          Alcotest.test_case "tape flow matches tree oracle" `Quick
            test_flow_matches_tree_oracle;
        ] );
      ("properties", qcheck_tests);
    ]
