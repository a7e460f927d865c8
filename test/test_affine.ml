(* Differential tests for the affine-arithmetic layer (Interval.Affine
   and its wiring): affine ranges vs true (sampled) values, the affine
   tape walker vs the interval walker, condensation soundness, and the
   call-site policy: the ODE field is the one place the switch reaches,
   so decide and pave are identical under either switch state. *)

module I = Interval.Ia
module A = Interval.Affine
module Box = Interval.Box
module T = Expr.Term
module Tape = Expr.Tape
module P = Expr.Parse
module S = Icp.Solver

let vars = [ "x"; "y"; "z" ]
let nvars = List.length vars

(* ---- random generators (deterministic seeds) ---- *)

let rand_leaf st =
  if Random.State.bool st then T.var (List.nth vars (Random.State.int st nvars))
  else T.const (Random.State.float st 4.0 -. 2.0)

let rec rand_smooth st depth =
  if depth = 0 then rand_leaf st
  else
    let sub () = rand_smooth st (depth - 1) in
    match Random.State.int st 16 with
    | 0 -> T.add (sub ()) (sub ())
    | 1 -> T.sub (sub ()) (sub ())
    | 2 -> T.mul (sub ()) (sub ())
    | 3 -> T.div (sub ()) (sub ())
    | 4 -> T.neg (sub ())
    | 5 -> T.pow (sub ()) (Random.State.int st 7 - 3)
    | 6 -> T.exp (sub ())
    | 7 -> T.log (sub ())
    | 8 -> T.sqrt (sub ())
    | 9 -> T.sin (sub ())
    | 10 -> T.cos (sub ())
    | 11 -> T.tan (sub ())
    | 12 -> T.atan (sub ())
    | 13 -> T.tanh (sub ())
    | 14 -> T.abs (sub ())
    | _ -> rand_leaf st

(* The full constructor set: the affine walker must stay sound through
   its Min/Max interval fallbacks too. *)
let rand_term st depth =
  if depth = 0 || Random.State.int st 8 > 0 then rand_smooth st depth
  else
    let sub () = rand_smooth st (depth - 1) in
    if Random.State.bool st then T.min_ (sub ()) (sub ())
    else T.max_ (sub ()) (sub ())

let rand_box st =
  Box.of_list
    (List.map
       (fun v ->
         let a = Random.State.float st 8.0 -. 4.0 in
         let w =
           match Random.State.int st 4 with
           | 0 -> 0.0 (* singleton *)
           | 1 -> Random.State.float st 0.5
           | _ -> Random.State.float st 4.0
         in
         (v, I.make a (a +. w)))
       vars)

let rand_point st b =
  List.map
    (fun (v, itv) ->
      (v, I.lo itv +. (Random.State.float st 1.0 *. I.width itv)))
    (Box.to_list b)

let inputs_of_box b =
  Array.of_list (List.map (fun v -> Box.find v b) vars)

(* ---- affine walker vs true values and the interval walker ----

   For every sampled point where the float evaluation is finite, both
   walkers' root enclosures must contain it (up to float-evaluation
   slack): the affine concretization is a sound range, never *assumed*
   tighter than the interval result — solver layers intersect the two,
   which is exactly what this licence checks. *)
let test_affine_soundness_sampled () =
  let st = Random.State.make [| 60 |] in
  let checked = ref 0 in
  for case = 1 to 1_200 do
    let t = rand_term st (1 + Random.State.int st 4) in
    let b = rand_box st in
    let tp = Tape.compile ~vars [ t ] in
    let sc = Tape.scratch tp in
    let inp = inputs_of_box b in
    let r_aff = Array.make 1 I.empty and r_itv = Array.make 1 I.empty in
    Tape.eval_affine_into tp sc ~inputs:inp ~out:r_aff;
    Tape.eval_interval_into tp sc ~inputs:inp ~out:r_itv;
    for _probe = 1 to 3 do
      let pt = rand_point st b in
      let v = try T.eval_env pt t with _ -> nan in
      if Float.is_finite v then begin
        incr checked;
        let slack = 1e-7 *. Float.max 1.0 (Float.abs v) in
        if not (I.mem v (I.inflate slack r_aff.(0))) then
          Alcotest.failf "case %d: %.17g outside affine range %s of %s" case v
            (I.to_string r_aff.(0)) (T.to_string t);
        if not (I.mem v (I.inflate slack r_itv.(0))) then
          Alcotest.failf "case %d: %.17g outside interval range %s of %s" case
            v (I.to_string r_itv.(0)) (T.to_string t)
      end
    done
  done;
  if !checked < 1_000 then
    Alcotest.failf "only %d points checked — generator drifted" !checked

(* Dependency problems where affine forms provably beat intervals; the
   tightness claim of the whole PR, pinned on its canonical examples. *)
let test_affine_tightness_dependency () =
  let check name ts box_l expect_width =
    let t = P.term ts in
    let tvars = T.free_var_list t in
    let tp = Tape.compile ~vars:tvars [ t ] in
    let sc = Tape.scratch tp in
    let b = Box.of_list box_l in
    let inp = Array.of_list (List.map (fun v -> Box.find v b) tvars) in
    let r_aff = Array.make 1 I.empty and r_itv = Array.make 1 I.empty in
    Tape.eval_affine_into tp sc ~inputs:inp ~out:r_aff;
    Tape.eval_interval_into tp sc ~inputs:inp ~out:r_itv;
    Alcotest.(check bool)
      (Printf.sprintf "%s: affine (%s) tighter than interval (%s)" name
         (I.to_string r_aff.(0)) (I.to_string r_itv.(0)))
      true
      (I.width r_aff.(0) < I.width r_itv.(0));
    Alcotest.(check bool)
      (Printf.sprintf "%s: affine width below %g" name expect_width)
      true
      (I.width r_aff.(0) <= expect_width)
  in
  check "cancellation" "x - x" [ ("x", I.make 0.0 1.0) ] 1e-9;
  check "logistic" "x*(1 - x)" [ ("x", I.make 0.0 1.0) ] 0.51;
  check "shifted-diff" "(x + 1) - x" [ ("x", I.make (-2.0) 2.0) ] 1e-9;
  check "quadratic" "x^2 - 2*x" [ ("x", I.make 0.0 2.0) ] 3.1

(* ---- condensation preserves the enclosure ---- *)

let rand_interval st =
  let a = Random.State.float st 8.0 -. 4.0 in
  I.make a (a +. Random.State.float st 2.0)

(* Random forms with many noise symbols, built through the public ops;
   condensing to any budget must only widen the concretization. *)
let test_condense_encloses () =
  let st = Random.State.make [| 61 |] in
  for case = 1 to 1_000 do
    let n = 2 + Random.State.int st 10 in
    let f = ref (A.of_interval ~sym:0 (rand_interval st)) in
    for i = 1 to n - 1 do
      let leaf = A.of_interval ~sym:i (rand_interval st) in
      f :=
        (match Random.State.int st 4 with
        | 0 -> A.add !f leaf
        | 1 -> A.sub !f leaf
        | 2 -> A.mul !f leaf
        | _ -> A.add (A.scale (Random.State.float st 2.0 -. 1.0) !f) leaf)
    done;
    let budget = 1 + Random.State.int st 4 in
    let c = A.condense ~budget !f in
    if A.nterms c > budget then
      Alcotest.failf "case %d: %d terms left after condense to %d" case
        (A.nterms c) budget;
    (* Both radii are upward-rounded sums of the same exact quantity in
       different association orders, so the condensed concretization may
       sit a few ulps inside the original; containment holds up to that
       rounding slack. *)
    let slack = 1e-12 *. Float.max 1.0 (I.mag (A.concretize !f)) in
    if not (I.subset (A.concretize !f) (I.inflate slack (A.concretize c))) then
      Alcotest.failf "case %d: condensation shrank %s to %s" case
        (I.to_string (A.concretize !f))
        (I.to_string (A.concretize c))
  done

(* A tiny process-wide budget must keep the walker sound (forms
   auto-condense mid-evaluation) and actually fire the condensation
   counter. *)
let test_budget_soundness () =
  let st = Random.State.make [| 62 |] in
  let cond = Telemetry.Counter.make ~always:true "affine.condensations" in
  let before = Telemetry.Counter.value cond in
  A.set_budget 2;
  Fun.protect
    ~finally:(fun () -> A.set_budget A.default_budget)
    (fun () ->
      for case = 1 to 300 do
        let t = rand_smooth st (2 + Random.State.int st 3) in
        let b = rand_box st in
        let tp = Tape.compile ~vars [ t ] in
        let sc = Tape.scratch tp in
        let r = Array.make 1 I.empty in
        Tape.eval_affine_into tp sc ~inputs:(inputs_of_box b) ~out:r;
        for _probe = 1 to 2 do
          let pt = rand_point st b in
          let v = try T.eval_env pt t with _ -> nan in
          if Float.is_finite v then
            let slack = 1e-7 *. Float.max 1.0 (Float.abs v) in
            if not (I.mem v (I.inflate slack r.(0))) then
              Alcotest.failf "case %d: %.17g escapes budget-2 range %s of %s"
                case v (I.to_string r.(0)) (T.to_string t)
        done
      done);
  Alcotest.(check bool) "condensations fired" true
    (Telemetry.Counter.value cond > before)

(* ---- call-site policy: affine only in the ODE field ---- *)

let with_affine flag f =
  A.set_enabled flag;
  Fun.protect ~finally:A.clear_enabled_override f

let with_metrics f =
  let metrics = Telemetry.metrics_on () in
  Telemetry.set_metrics true;
  Fun.protect ~finally:(fun () -> Telemetry.set_metrics metrics) f

let verdict_kind = function
  | S.Delta_sat _ -> "delta-sat"
  | S.Unsat -> "unsat"
  | S.Unknown _ -> "unknown"

let stats_tuple (s : S.stats) =
  (s.S.boxes_processed, s.S.splits, s.S.prunings, s.S.max_depth,
   s.S.certifications)

let box l = Box.of_list (List.map (fun (x, lo, hi) -> (x, I.make lo hi)) l)

let decide_cases =
  [ ("sqrt2", "x^2 = 2", box [ ("x", 0.0, 2.0) ]);
    ( "geom-unsat",
      "x^2 + y^2 <= 1 and x + y >= 3",
      box [ ("x", -1.0, 1.0); ("y", -1.0, 1.0) ] );
    ("sin", "sin(x) = 1/2", box [ ("x", 0.0, 3.0) ]);
    ( "cubic-dependency",
      "x^3 - 2*x^2 + 1.25*x = 0.25 and y^3 - 2*y^2 + 1.25*y = 0.25 and \
       (x - y)^2 >= 0.3",
      box [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] );
    ( "mm-kinetics",
      "1.2*s1/(0.4 + s1) + 1.2*s2/(0.4 + s2) = 1.35 and s1 + s2 = 1",
      box [ ("s1", 0.0, 1.0); ("s2", 0.0, 1.0) ] );
    ( "tangency",
      "x^2 + y^2 = 1 and x*y = 1/2",
      box [ ("x", 0.0, 2.0); ("y", 0.0, 2.0) ] ) ]

(* A dependency-rich impulse-response fit and an annulus band: pave
   runs its certifier and contractor on both, and neither may consult
   the affine switch. *)
let pave_cases =
  [ ( "impulse-fit",
      "a*k*exp(-k) >= 0.3 and a*k*exp(-k) <= 0.5 and \
       3*a*k*exp(-3*k) >= 0.1 and 3*a*k*exp(-3*k) <= 0.3",
      box [ ("k", 0.05, 2.5); ("a", 0.2, 3.0) ] );
    ( "annulus",
      "x^2 + y^2 <= 1 and x^2 + y^2 >= 1/2",
      box [ ("x", -1.5, 1.5); ("y", -1.5, 1.5) ] ) ]

let sorted_leaves (p : S.paving) =
  let sort = List.sort (fun a b -> compare (Box.to_list a) (Box.to_list b)) in
  (sort p.S.sat, sort p.S.unsat, sort p.S.undecided)

let same_leaves (s, u, d) (s', u', d') =
  List.equal Box.equal s s' && List.equal Box.equal u u'
  && List.equal Box.equal d d'

(* jobs > 1 on real domains schedules the frontier nondeterministically,
   so a decide's stats can differ between two runs of the same search;
   on the sequential drive (domain cap 1) the jobs=2 schedule is fixed. *)
let with_sequential_drive f =
  let saved = Parallel.Pool.domain_cap () in
  Parallel.Pool.set_domain_cap (Some 1);
  Fun.protect ~finally:(fun () -> Parallel.Pool.set_domain_cap (Some saved)) f

(* The strict pin: every decide case at jobs 1 and 2 and every pave
   case returns the same verdict, the same stats and the same leaves
   with the affine switch on and off (decide and pave read no cache, so
   neither run can replay the other's results). *)
let test_search_ignores_affine () =
  with_sequential_drive @@ fun () ->
  List.iter
    (fun jobs ->
      List.iter
        (fun (name, fs, bx) ->
          let f = P.formula fs in
          let config = { S.default_config with jobs } in
          let run on =
            with_affine on (fun () ->
                let r, stats = S.decide_with_stats ~config f bx in
                (verdict_kind r, stats_tuple stats))
          in
          let v_on, s_on = run true in
          let v_off, s_off = run false in
          let what = Printf.sprintf "%s at jobs=%d" name jobs in
          Alcotest.(check string) (what ^ ": verdict") v_off v_on;
          Alcotest.(check bool) (what ^ ": stats") true (s_on = s_off))
        decide_cases;
      List.iter
        (fun (name, fs, bx) ->
          let f = P.formula fs in
          let config = { S.default_config with S.epsilon = 0.05; jobs } in
          let run on =
            with_affine on (fun () ->
                let p, stats = S.pave_with_stats ~config f bx in
                (sorted_leaves p, stats_tuple stats))
          in
          let l_on, s_on = run true in
          let l_off, s_off = run false in
          let what = Printf.sprintf "pave %s at jobs=%d" name jobs in
          Alcotest.(check bool) (what ^ ": stats") true (s_on = s_off);
          Alcotest.(check bool) (what ^ ": leaves") true
            (same_leaves l_on l_off))
        pave_cases)
    [ 1; 2 ]

let affine_span_count () =
  match List.assoc_opt "icp.affine" (Telemetry.Metrics.histograms ()) with
  | Some s -> s.Telemetry.Histogram.count
  | None -> 0

(* With the switch on, a default decide and a default pave enter no
   affine pass (the icp.affine span does not advance), while a flow of
   the logistic equation still tightens its field with affine forms. *)
let test_affine_only_in_flows () =
  with_metrics @@ fun () ->
  with_affine true @@ fun () ->
  let before = affine_span_count () in
  List.iter (fun (_, fs, bx) -> ignore (S.decide (P.formula fs) bx)) decide_cases;
  Alcotest.(check int) "icp.affine spans during decide" before
    (affine_span_count ());
  let config = { S.default_config with S.epsilon = 0.05 } in
  List.iter
    (fun (_, fs, bx) -> ignore (S.pave ~config (P.formula fs) bx))
    pave_cases;
  Alcotest.(check int) "icp.affine spans during pave" before
    (affine_span_count ());
  let tightenings = Telemetry.Counter.make ~always:true "affine.tightenings" in
  let t0 = Telemetry.Counter.value tightenings in
  let sys =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[] ~rhs:[ ("x", "x*(1 - x)") ]
  in
  ignore
    (Ode.Enclosure.flow ~params:Box.empty_map
       ~init:(box [ ("x", 0.2, 0.35) ])
       ~t_end:2.0 sys);
  Alcotest.(check bool) "flow advances affine.tightenings" true
    (Telemetry.Counter.value tightenings > t0);
  Alcotest.(check bool) "flow enters the icp.affine span" true
    (affine_span_count () > before)

let () =
  Alcotest.run "affine"
    [ ( "soundness",
        [ Alcotest.test_case "affine range contains sampled values" `Quick
            test_affine_soundness_sampled;
          Alcotest.test_case "dependency tightness pinned" `Quick
            test_affine_tightness_dependency ] );
      ( "condensation",
        [ Alcotest.test_case "condense only widens" `Quick
            test_condense_encloses;
          Alcotest.test_case "tiny budget stays sound" `Quick
            test_budget_soundness ] );
      ( "policy",
        [ Alcotest.test_case "decide, pave ignore switch" `Quick
            test_search_ignores_affine;
          Alcotest.test_case "affine runs only in ODE flows" `Quick
            test_affine_only_in_flows ] ) ]
