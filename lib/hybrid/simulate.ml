(* Simulation of hybrid automata trajectories (Definitions 8–10).

   The trajectory is organised along the hybrid time domain: a sequence of
   segments, one per visited mode, each carrying a continuous trace whose
   local clock starts at 0 (the "t" the guards and invariants see) while
   global time accumulates across segments.

   Jump semantics are *urgent and deterministic*: after every accepted
   integration step, the enabled jumps are inspected in declaration order
   and the first enabled one is taken (its crossing localized by
   bisection).  If the invariant fails with no enabled jump, the
   trajectory is stuck. *)

module F = Expr.Formula

let tm_simulate = Telemetry.Span.probe "hybrid.simulate"
let m_segments = Telemetry.Counter.make "hybrid.segments"

type segment = {
  seg_mode : string;
  t_global : float;  (** global time when this mode was entered *)
  trace : Ode.Integrate.trace;  (** local time axis, starts at 0 *)
}

type stop_reason =
  | Time_exhausted  (** reached the global time horizon *)
  | Jump_budget  (** reached the maximum number of jumps *)
  | Stuck  (** invariant violated with no enabled jump *)
  | Blow_up  (** integration diverged *)
  | Zeno  (** many consecutive jumps with (near-)zero dwell time *)

type trajectory = {
  segments : segment list;  (* in visit order *)
  path : string list;  (* visited modes, same order *)
  final_mode : string;
  final_env : (string * float) list;  (* state variables only *)
  total_time : float;
  reason : stop_reason;
}

let pp_stop_reason ppf r =
  Fmt.string ppf
    (match r with
    | Time_exhausted -> "time exhausted"
    | Jump_budget -> "jump budget"
    | Stuck -> "stuck"
    | Blow_up -> "blow-up"
    | Zeno -> "zeno (instantaneous jump loop)")

let state_env vars y = List.mapi (fun j v -> (v, y.(j))) vars

(* Find trajectory value of a variable at a global time. *)
let value_at traj x t_global =
  let rec go = function
    | [] -> None
    | seg :: rest ->
        let t_end = seg.t_global +. Ode.Integrate.final_time seg.trace in
        let next_start = match rest with s :: _ -> s.t_global | [] -> infinity in
        if t_global < seg.t_global then None
        else if t_global <= t_end || t_global < next_start then
          Some (Ode.Integrate.value_at seg.trace x (t_global -. seg.t_global))
        else go rest
  in
  go traj.segments

(* Sample a variable at [n] evenly spaced global times. *)
let sample traj x ~n =
  let t_max = traj.total_time in
  List.init n (fun i ->
      let t = t_max *. float_of_int i /. float_of_int (Stdlib.max 1 (n - 1)) in
      (t, value_at traj x t))

let simulate ?(method_ = Ode.Integrate.default_rkf45) ?(max_jumps = 50)
    ?(event_tol = 1e-9) ?(zeno_dwell = 1e-9) ?(zeno_limit = 8) ~params ~init ~t_end
    (h : Automaton.t) =
  Telemetry.Span.with_ tm_simulate @@ fun () ->
  let vars = Automaton.vars h in
  List.iter
    (fun p ->
      if not (List.mem_assoc p params) then
        invalid_arg (Printf.sprintf "Simulate: parameter %S not bound" p))
    (Automaton.params h);
  let full_env t y = ((Ode.System.time_var, t) :: params) @ state_env vars y in
  let rec run mode_name y t_global jumps_taken zeno_count segments path =
    let m = Automaton.find_mode h mode_name in
    let sys = Automaton.mode_system h mode_name in
    let out_jumps = Automaton.jumps_from h mode_name in
    (* Stop integrating this mode when a guard fires or the invariant
       breaks (both checked on the local clock). *)
    let guard_formula =
      F.or_ (List.map (fun (j : Automaton.jump) -> j.guard) out_jumps)
    in
    let stop_formula = F.or_ [ guard_formula; F.neg m.invariant ] in
    let init_env = state_env vars y in
    let budget = t_end -. t_global in
    let trace, event =
      Ode.Integrate.simulate_until ~method_ ~tol:event_tol ~params ~init:init_env
        ~t_end:budget ~guard:stop_formula sys
    in
    Telemetry.Counter.incr m_segments;
    let segment = { seg_mode = mode_name; t_global; trace } in
    let segments = segment :: segments in
    let finish reason final_y final_t =
      {
        segments = List.rev segments;
        path = List.rev path;
        final_mode = mode_name;
        final_env = state_env vars final_y;
        total_time = final_t;
        reason;
      }
    in
    match event with
    | None ->
        let y_final = Ode.Integrate.final_state trace in
        let t_final = t_global +. Ode.Integrate.final_time trace in
        if Ode.Integrate.final_time trace < budget -. 1e-9 then
          finish Blow_up y_final t_final
        else finish Time_exhausted y_final t_final
    | Some ev ->
        let t_local = ev.Ode.Integrate.time and y_ev = ev.Ode.Integrate.state in
        let env = full_env t_local y_ev in
        let enabled =
          List.find_opt (fun (j : Automaton.jump) -> F.holds_env env j.guard) out_jumps
        in
        let t_now = t_global +. t_local in
        (match enabled with
        | None ->
            (* Stopped because the invariant failed. *)
            finish Stuck y_ev t_now
        | Some j ->
            let zeno_count = if t_local < zeno_dwell then zeno_count + 1 else 0 in
            if jumps_taken >= max_jumps then finish Jump_budget y_ev t_now
            else if zeno_count >= zeno_limit then finish Zeno y_ev t_now
            else begin
              (* Apply the reset; unlisted variables carry over. *)
              let y' =
                Array.of_list
                  (List.map
                     (fun v ->
                       match List.assoc_opt v j.reset with
                       | Some term -> Expr.Term.eval_env env term
                       | None -> List.assoc v env)
                     vars)
              in
              run j.target y' t_now (jumps_taken + 1) zeno_count segments
                (j.target :: path)
            end)
  in
  let y0 =
    Array.of_list
      (List.map
         (fun v -> Interval.Ia.mid (Interval.Box.find v (Automaton.init_box h)))
         vars)
  in
  let y0 =
    (* Allow the caller to override initial values. *)
    Array.of_list
      (List.mapi
         (fun i v -> match List.assoc_opt v init with Some x -> x | None -> y0.(i))
         vars)
  in
  run (Automaton.init_mode h) y0 0.0 0 0 [] [ Automaton.init_mode h ]

(* Convenience: simulate from the automaton's own initial box midpoint. *)
let simulate_default ?method_ ?max_jumps ?event_tol ~params ~t_end h =
  simulate ?method_ ?max_jumps ?event_tol ~params ~init:[] ~t_end h

(* CSV of the whole trajectory on the global time axis, with the mode
   name as the last column. *)
let to_csv traj =
  let buf = Buffer.create 4096 in
  (match traj.segments with
  | [] -> ()
  | seg :: _ ->
      let vars = seg.trace.Ode.Integrate.vars in
      Buffer.add_string buf (String.concat "," (("t" :: vars) @ [ "mode" ]));
      Buffer.add_char buf '\n';
      List.iter
        (fun seg ->
          let tr = seg.trace in
          Array.iteri
            (fun i t_local ->
              Buffer.add_string buf
                (Printf.sprintf "%.9g" (seg.t_global +. t_local));
              Array.iter
                (fun v -> Buffer.add_string buf (Printf.sprintf ",%.9g" v))
                tr.Ode.Integrate.states.(i);
              Buffer.add_string buf (Printf.sprintf ",%s\n" seg.seg_mode))
            tr.Ode.Integrate.times)
        traj.segments);
  Buffer.contents buf

let pp_trajectory ppf traj =
  Fmt.pf ppf "@[<v>path: %a@ time: %g@ final (%s): %a@ stop: %a@]"
    Fmt.(list ~sep:(any " -> ") string) traj.path traj.total_time traj.final_mode
    Fmt.(list ~sep:(any ", ") (pair ~sep:(any "=") string float)) traj.final_env
    pp_stop_reason traj.reason
