module Api = Ufork_sas.Api

type result = {
  completed : int;
  window_cycles : int64;
  throughput_per_s : float;
  forks : int;
}

let run_function (api : Api.t) ?locals program =
  match
    ignore (Mpy.zygote_check api);
    Mpy.run api ?locals program
  with
  | _v -> api.Api.exit 0
  | exception Mpy.Runtime_error _ -> api.Api.exit 1
  | exception Failure _ -> api.Api.exit 1

let coordinator ?locals (api : Api.t) ~max_workers ~window_cycles ~program =
  if max_workers <= 0 then invalid_arg "Faas.coordinator";
  Mpy.zygote_init api ~modules:24;
  let t0 = api.Api.now () in
  let deadline = Int64.add t0 window_cycles in
  let outstanding = ref 0 in
  let completed = ref 0 in
  let forks = ref 0 in
  while api.Api.now () < deadline do
    if !outstanding < max_workers then begin
      incr forks;
      ignore (api.Api.fork (fun capi -> run_function capi ?locals program));
      incr outstanding
    end
    else begin
      let _pid, status = api.Api.wait () in
      decr outstanding;
      if status = 0 && api.Api.now () <= deadline then incr completed
    end
  done;
  (* Drain in-flight functions (not counted). *)
  while !outstanding > 0 do
    ignore (api.Api.wait ());
    decr outstanding
  done;
  let window = Int64.sub deadline t0 in
  {
    completed = !completed;
    window_cycles = window;
    throughput_per_s =
      float_of_int !completed /. Ufork_util.Units.s_of_cycles window;
    forks = !forks;
  }
