(* Seeds exactly one D14 (no-process-global-state) violation: a counter
   at module level inside a nested module. Every machine booted in the
   process shares it, so one machine's run leaks into the next. *)

module Registry = struct
  let next_id = ref 0

  let fresh () =
    incr next_id;
    !next_id
end
