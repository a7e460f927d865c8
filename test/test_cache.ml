(* Differential tests: cached vs uncached analyses.

   The two stores — reach segment enclosures and BioPSy box verdicts —
   replay results only for boxes equal to a previously queried one, and
   every cached computation is a deterministic function of its key, so
   reach synthesis and BioPSy synthesis must produce *identical* answers
   with the caches off, on, and pre-populated.  The mechanics cases pin
   the store itself: exact-only lookup, FIFO capacity, epoch clears and
   concurrent access. *)

module I = Interval.Ia
module Box = Interval.Box
module P = Expr.Parse
module B = Synth.Biopsy
module D = Synth.Data
module E = Reach.Encoding
module C = Reach.Checker

(* Every run below clears the caches before and after, so tests are
   independent of execution order and of each other's populations. *)
let with_cache on f =
  Cache.clear ();
  Cache.set_enabled on;
  Fun.protect
    ~finally:(fun () ->
      Cache.clear_enabled_override ();
      Cache.clear ())
    f

let sorted_boxes bs = List.sort compare (List.map Box.to_string bs)

(* ---- reach: identical synthesis pavings, sequential and parallel ---- *)

(* x' = -kx from x = 1, goal x <= c by t = 1: the boundary k* = -ln c
   splits the parameter box into feasible and infeasible leaves. *)
let decay_k_automaton =
  Hybrid.Automaton.of_system
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    (Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ])

let rand_reach_problem st =
  let lo = 0.1 +. Random.State.float st 0.5 in
  let hi = lo +. 1.0 +. Random.State.float st 2.0 in
  let c = 0.2 +. Random.State.float st 0.3 in
  E.create
    ~param_box:(Box.of_list [ ("k", I.make lo hi) ])
    ~goal:
      { E.goal_modes = []; predicate = P.formula (Printf.sprintf "x <= %.3f" c) }
    ~k:0 ~time_bound:1.0 decay_k_automaton

let synthesis_leaves (s : C.synthesis) =
  ( sorted_boxes (List.map fst s.C.feasible),
    sorted_boxes (List.map fst s.C.infeasible),
    sorted_boxes (List.map fst s.C.undecided) )

let test_reach_differential () =
  let st = Random.State.make [| 2035 |] in
  let config = { C.default_config with epsilon = 0.1 } in
  for case = 1 to 8 do
    let pb = rand_reach_problem st in
    let off = with_cache false (fun () -> synthesis_leaves (C.synthesize ~config pb)) in
    let cold, replay, hits =
      with_cache true (fun () ->
          let cold = synthesis_leaves (C.synthesize ~config pb) in
          let before = Cache.global_stats () in
          let replay = synthesis_leaves (C.synthesize ~config pb) in
          (cold, replay, (Cache.sub_stats (Cache.global_stats ()) before).Cache.hits))
    in
    if off <> cold then Alcotest.failf "case %d: pavings differ (off vs cached)" case;
    if off <> replay then Alcotest.failf "case %d: pavings differ (off vs replay)" case;
    if hits = 0 then Alcotest.failf "case %d: the replay never hit the segment store" case;
    let par =
      with_cache true (fun () ->
          synthesis_leaves (C.synthesize ~config:{ config with jobs = 2 } pb))
    in
    if off <> par then
      Alcotest.failf "case %d: pavings differ (off vs cached jobs=2)" case
  done

(* ---- biopsy: identical pavings, sequential and parallel ---- *)

let decay_k =
  Ode.System.of_strings ~vars:[ "x" ] ~params:[ "k" ] ~rhs:[ ("x", "-k*x") ]

let decay_data tol =
  List.map
    (fun t -> D.point ~time:t ~var:"x" ~value:(Float.exp (-.t)) ~tolerance:tol)
    [ 0.25; 0.5; 0.75; 1.0 ]

let rand_biopsy_problem st =
  let tol = 0.05 +. Random.State.float st 0.2 in
  let lo = 0.2 +. Random.State.float st 0.4 in
  let hi = lo +. 0.5 +. Random.State.float st 2.0 in
  B.problem ~sys:decay_k
    ~param_box:(Box.of_list [ ("k", I.make lo hi) ])
    ~init:(Box.of_list [ ("x", I.of_float 1.0) ])
    ~data:(decay_data tol)

let biopsy_result_eq (a : B.result) (b : B.result) =
  sorted_boxes a.B.consistent = sorted_boxes b.B.consistent
  && sorted_boxes a.B.inconsistent = sorted_boxes b.B.inconsistent
  && sorted_boxes a.B.undecided = sorted_boxes b.B.undecided

let test_biopsy_differential () =
  let st = Random.State.make [| 2030 |] in
  let config = { B.default_config with epsilon = 0.05; max_boxes = 800 } in
  for case = 1 to 40 do
    let prob = rand_biopsy_problem st in
    let off = with_cache false (fun () -> B.synthesize ~config prob) in
    let cold, replay =
      with_cache true (fun () ->
          (B.synthesize ~config prob, B.synthesize ~config prob))
    in
    if not (biopsy_result_eq off cold) then
      Alcotest.failf "case %d: pavings differ (off vs cached)" case;
    if not (biopsy_result_eq off replay) then
      Alcotest.failf "case %d: pavings differ (off vs replay)" case;
    if off.B.boxes_explored <> cold.B.boxes_explored then
      Alcotest.failf "case %d: explored %d (off) vs %d (cached)" case
        off.B.boxes_explored cold.B.boxes_explored;
    (* Parallel paving with a shared cache: same leaves. *)
    let par =
      with_cache true (fun () ->
          B.synthesize ~config:{ config with jobs = 2 } prob)
    in
    if not (biopsy_result_eq off par) then
      Alcotest.failf "case %d: pavings differ (off vs cached jobs=2)" case
  done

(* The stores key their groups on the affine switch (through
   [Ode.Enclosure.config_fingerprint]): verdicts built from affine tubes
   must not replay into a BIOMC_NO_AFFINE=1 run.  The logistic field
   mentions x twice, so the two tubes, and with them the two pavings,
   differ. *)
let test_biopsy_affine_keyed () =
  let sys =
    Ode.System.of_strings ~vars:[ "x" ] ~params:[ "r" ] ~rhs:[ ("x", "r*x*(1 - x)") ]
  in
  let data =
    List.map
      (fun t ->
        D.point ~time:t ~var:"x"
          ~value:(1.0 /. (1.0 +. (4.0 *. Float.exp (-.t))))
          ~tolerance:0.05)
      [ 1.0; 2.0; 3.0 ]
  in
  let prob =
    B.problem ~sys
      ~param_box:(Box.of_list [ ("r", I.make 0.5 1.5) ])
      ~init:(Box.of_list [ ("x", I.make 0.19 0.21) ])
      ~data
  in
  let config = { B.default_config with epsilon = 0.05; max_boxes = 800 } in
  let run affine =
    Interval.Affine.set_enabled affine;
    Fun.protect ~finally:Interval.Affine.clear_enabled_override (fun () ->
        B.synthesize ~config prob)
  in
  let plain = with_cache false (fun () -> run false) in
  let affine = with_cache false (fun () -> run true) in
  Alcotest.(check bool) "the switch changes the paving" false
    (biopsy_result_eq plain affine);
  let replay = with_cache true (fun () -> ignore (run true); run false) in
  Alcotest.(check bool) "no affine verdict replays into a plain run" true
    (biopsy_result_eq plain replay)

(* ---- BIOMC_NO_CACHE / off: no lookups, no inserts ---- *)

let test_off_is_identity () =
  with_cache false (fun () ->
      let c : int Cache.t = Cache.create "test-off" in
      let b = Box.of_list [ ("x", I.make 0.0 1.0) ] in
      Cache.add c ~group:"g" b 1;
      Alcotest.(check int) "no insert when off" 0 (Cache.length c);
      match Cache.find c ~group:"g" b with
      | None -> ()
      | Some _ -> Alcotest.fail "off must always miss")

(* ---- cache mechanics units ---- *)

let mkbox lo hi = Box.of_list [ ("x", I.make lo hi) ]

let test_exact_hit_identity () =
  with_cache true (fun () ->
      let c : string list Cache.t = Cache.create "test-unit" in
      let v = [ "a"; "b" ] in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) v;
      match Cache.find c ~group:"g" (mkbox 0.0 1.0) with
      | Some v' -> Alcotest.(check bool) "physically equal" true (v == v')
      | None -> Alcotest.fail "expected exact hit")

let test_exact_no_subsumption () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox (-4.0) 4.0) 1;
      match Cache.find c ~group:"g" (mkbox (-0.5) 0.5) with
      | None -> ()
      | Some _ -> Alcotest.fail "a containing box must not answer a sub-box")

let test_group_isolation () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g1" (mkbox 0.0 1.0) 1;
      match Cache.find c ~group:"g2" (mkbox 0.0 1.0) with
      | None -> ()
      | Some _ -> Alcotest.fail "groups must be isolated")

let test_capacity_eviction () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create ~group_capacity:4 "test-unit" in
      for i = 0 to 9 do
        Cache.add c ~group:"g" (mkbox 0.0 (float_of_int i +. 1.0)) i
      done;
      Alcotest.(check int) "capacity bound" 4 (Cache.length c);
      (* newest entries survive FIFO truncation *)
      Alcotest.(check (option int)) "newest entry survives" (Some 9)
        (Cache.find c ~group:"g" (mkbox 0.0 10.0));
      Alcotest.(check (option int)) "oldest entry evicted" None
        (Cache.find c ~group:"g" (mkbox 0.0 1.0)))

let test_replace_equal_box () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 2;
      Alcotest.(check int) "replaced, not duplicated" 1 (Cache.length c);
      Alcotest.(check (option int)) "replacement wins" (Some 2)
        (Cache.find c ~group:"g" (mkbox 0.0 1.0)))

(* Replacing a key keeps its first-insertion slot in the eviction order
   (and adds no queue growth): after a replace, the key is still the
   oldest and evicts first once capacity is exceeded. *)
let test_replace_keeps_fifo_slot () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create ~group_capacity:2 "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 10;
      Cache.add c ~group:"g" (mkbox 0.0 2.0) 2;
      Cache.add c ~group:"g" (mkbox 0.0 3.0) 3;
      Alcotest.(check int) "capacity bound" 2 (Cache.length c);
      Alcotest.(check (option int)) "replaced key still evicts first" None
        (Cache.find c ~group:"g" (mkbox 0.0 1.0));
      Alcotest.(check (option int)) "newest entry survives" (Some 3)
        (Cache.find c ~group:"g" (mkbox 0.0 3.0)))

let test_clear_invalidates () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      Cache.clear ();
      Alcotest.(check (option int)) "clear invalidates" None
        (Cache.find c ~group:"g" (mkbox 0.0 1.0));
      (* the cache is usable again after a clear *)
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 2;
      Alcotest.(check (option int)) "inserts work after clear" (Some 2)
        (Cache.find c ~group:"g" (mkbox 0.0 1.0)))

let test_stats_counting () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-stats" in
      let before = Cache.global_stats () in
      ignore (Cache.find c ~group:"g" (mkbox 0.0 1.0));
      Cache.add c ~group:"g" (mkbox 0.0 1.0) 1;
      ignore (Cache.find c ~group:"g" (mkbox 0.0 1.0));
      let d = Cache.sub_stats (Cache.global_stats ()) before in
      Alcotest.(check int) "one miss" 1 d.Cache.misses;
      Alcotest.(check int) "one hit" 1 d.Cache.hits;
      Alcotest.(check int) "one insertion" 1 d.Cache.insertions;
      Alcotest.(check bool) "named stats include test-stats" true
        (List.mem_assoc "test-stats" (Cache.named_stats ())))

let test_concurrent_access () =
  with_cache true (fun () ->
      let c : int Cache.t = Cache.create "test-unit" in
      let domains =
        List.init 4 (fun d ->
            Domain.spawn (fun () ->
                for i = 0 to 249 do
                  let b = mkbox 0.0 (float_of_int ((i mod 25) + 1)) in
                  let g = Printf.sprintf "g%d" (i mod 3) in
                  match Cache.find c ~group:g b with
                  | Some v -> assert (v = i mod 25)
                  | None -> Cache.add c ~group:g b (i mod 25)
                done;
                d))
      in
      let done_ = List.map Domain.join domains in
      Alcotest.(check (list int)) "all domains joined" [ 0; 1; 2; 3 ] done_)

let () =
  Alcotest.run "cache"
    [ ( "differential",
        [ Alcotest.test_case "reach-seg off=on=replay, jobs=2" `Quick
            test_reach_differential;
          Alcotest.test_case "biopsy off=exact=replay, jobs=2" `Quick
            test_biopsy_differential;
          Alcotest.test_case "biopsy keyed on the affine switch" `Quick
            test_biopsy_affine_keyed;
          Alcotest.test_case "Off reproduces uncached" `Quick
            test_off_is_identity ] );
      ( "mechanics",
        [ Alcotest.test_case "exact hit identity" `Quick test_exact_hit_identity;
          Alcotest.test_case "exact never subsumes" `Quick
            test_exact_no_subsumption;
          Alcotest.test_case "group isolation" `Quick test_group_isolation;
          Alcotest.test_case "capacity eviction" `Quick test_capacity_eviction;
          Alcotest.test_case "replace equal box" `Quick test_replace_equal_box;
          Alcotest.test_case "replace keeps FIFO slot" `Quick
            test_replace_keeps_fifo_slot;
          Alcotest.test_case "clear invalidates" `Quick test_clear_invalidates;
          Alcotest.test_case "stats counting" `Quick test_stats_counting;
          Alcotest.test_case "concurrent access" `Quick test_concurrent_access ] ) ]
