(* Therapeutic strategy identification (Sec. IV-B).

   A treatment scheme is a mode path of the multi-mode disease model whose
   jump conditions (drug-delivery thresholds) are parameters.  The
   synthesis problem: find threshold values such that a *recovery* goal is
   reachable while a *harm* goal (death, relapse) is not — and among such
   schemes prefer the fewest discrete jumps, i.e. the fewest drug
   administrations, to limit side effects. *)

module Box = Interval.Box

let src = Logs.Src.create "core.therapy" ~doc:"therapy optimization"
module Log = (val Logs.src_log src : Logs.LOG)

type plan = {
  path : string list;  (** treatment scheme as a mode path *)
  thresholds : (string * float) list;  (** synthesized jump parameters *)
  jumps : int;  (** number of drug decisions = path length - 1 *)
  reach_time : float;
  safety_checked : bool;
      (** harm check returned unsat at these thresholds *)
  safety_rigorous : bool;
      (** that unsat rests on validated tubes only (no sampled bracket) *)
}

let pp_plan ppf p =
  Fmt.pf ppf "@[<v>scheme: %a (%d jumps%s)@ thresholds: %a@ recovery at t=%.3g@]"
    Fmt.(list ~sep:(any " -> ") string)
    p.path p.jumps
    (if not p.safety_checked then ""
     else if p.safety_rigorous then ", safety verified"
     else ", safety bracketed")
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float))
    p.thresholds p.reach_time

type outcome =
  | Plan of plan
  | No_plan of string

let pp_outcome ppf = function
  | Plan p -> pp_plan ppf p
  | No_plan why -> Fmt.pf ppf "no treatment scheme found (%s)" why

(* Check whether at fixed thresholds the harm goal can be reached within
   [k_harm] jumps.  The thresholds are bound into the automaton, so the
   check is parameter-free. *)
let harm_check ?config automaton ~harm ~k_harm ~time_bound thresholds =
  let bound = Hybrid.Automaton.bind_params thresholds automaton in
  Reach.Checker.check ?config
    (Reach.Encoding.create ~goal:harm ~k:k_harm ~time_bound bound)

let safe_at ?config automaton ~harm ~k_harm ~time_bound thresholds =
  match harm_check ?config automaton ~harm ~k_harm ~time_bound thresholds with
  | Reach.Checker.Unsat _ -> Some true
  | Reach.Checker.Delta_sat _ -> Some false
  | Reach.Checker.Unknown _ -> None

(* Find a minimal-length treatment scheme:
   for k = 1 .. max_jumps, ask for thresholds that make [recovery]
   reachable via a k-jump path; on a δ-sat witness, verify the harm goal
   is unreachable at those thresholds.  The first verified witness wins —
   paths are explored shortest-first, realizing the paper's "minimize the
   number of drugs used" objective. *)
let optimize ?config ?(k_harm = 6) ~param_box ~recovery ~harm ~max_jumps ~time_bound
    automaton =
  let rec try_k k last_failure =
    if k > max_jumps then
      No_plan
        (match last_failure with
        | Some why -> why
        | None -> "recovery unreachable within the jump budget")
    else begin
      Log.info (fun m -> m "searching treatment schemes with %d jump(s)" k);
      let pb =
        Reach.Encoding.create ~param_box ~goal:recovery ~k ~time_bound automaton
      in
      match Reach.Checker.check ?config pb with
      | Reach.Checker.Unsat _ -> try_k (k + 1) last_failure
      | Reach.Checker.Unknown why -> try_k (k + 1) (Some ("solver: " ^ why))
      | Reach.Checker.Delta_sat w -> (
          match
            harm_check ?config automaton ~harm ~k_harm ~time_bound
              w.Reach.Checker.params
          with
          | Reach.Checker.Unsat { rigorous } ->
              Plan
                {
                  path = w.Reach.Checker.path;
                  thresholds = w.Reach.Checker.params;
                  jumps = List.length w.Reach.Checker.path - 1;
                  reach_time = w.Reach.Checker.reach_time;
                  safety_checked = true;
                  safety_rigorous = rigorous;
                }
          | Reach.Checker.Delta_sat _ ->
              try_k (k + 1) (Some "witness reached the harm state")
          | Reach.Checker.Unknown _ ->
              try_k (k + 1) (Some "safety check inconclusive"))
    end
  in
  try_k 1 None
