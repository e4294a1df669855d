type point = { name : string; value : float; unit_ : string; source : string }

let fig n =
  Printf.sprintf "Fig. %d at 100 MB (bench/main.ml fig%d note; EXPERIMENTS.md)"
    n n

let redis =
  [
    { name = "fork_us uFork/CoPA"; value = 260.; unit_ = "us"; source = fig 4 };
    {
      name = "fork_us uFork/full-copy";
      value = 23_200.;
      unit_ = "us";
      source = fig 4;
    };
    { name = "save_ms uFork/CoPA"; value = 109.; unit_ = "ms"; source = fig 3 };
    { name = "save_ms CheriBSD"; value = 158.; unit_ = "ms"; source = fig 3 };
    { name = "child_mb uFork/CoPA"; value = 6.; unit_ = "MB"; source = fig 5 };
    {
      name = "child_mb uFork/full-copy";
      value = 144.;
      unit_ = "MB";
      source = fig 5;
    };
    { name = "child_mb CheriBSD"; value = 56.; unit_ = "MB"; source = fig 5 };
  ]

let faas_ratio =
  {
    name = "throughput uFork/CheriBSD, 3 worker cores";
    value = 1.24;
    unit_ = "ratio";
    source = "Fig. 6: uFork +24% (EXPERIMENTS.md)";
  }

let err_pct pairs =
  if pairs = [] then invalid_arg "Paper.err_pct: no points";
  let sum =
    List.fold_left
      (fun acc (measured, paper) ->
        if paper = 0. then invalid_arg "Paper.err_pct: zero reference";
        acc +. (Float.abs (measured -. paper) /. Float.abs paper))
      0. pairs
  in
  100. *. sum /. float_of_int (List.length pairs)
