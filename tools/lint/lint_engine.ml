(* AST-level enforcement of the rule catalogue (Lint_rules).

   Files are parsed with the pinned compiler's own front end
   (compiler-libs), so comments and doc strings are invisible by
   construction — the grep lint's false positives — and module aliases
   and opens are resolved, closing its false negatives: [module E =
   Engine; E.advance n] is a D1 finding, [(* Engine.advance *)] is not.

   Resolution model (deliberately syntactic — no typing pass):
   - module aliases are tracked file-globally and substituted at the
     head of every identifier path, transitively;
   - opens are tracked file-globally; a bare identifier matches a banned
     [M.f] when some open ends in [M];
   - banned names match by path suffix, so [Ufork_sim.Engine.advance]
     and [Engine.advance] are the same name.
   File-global tracking is conservative (a local open taints the whole
   file), which is the right polarity for a linter that must keep the
   tree clean. *)

open Parsetree

type finding = {
  rule : Lint_rules.t;
  file : string;
  line : int;
  col : int;
  message : string;
}

(* {1 Path matching} *)

let ends_with ~suffix path =
  let lp = List.length path and ls = List.length suffix in
  lp >= ls
  && (let rec drop n l = if n = 0 then l else drop (n - 1) (List.tl l) in
      drop (lp - ls) path = suffix)

(* {1 Banned-name tables} *)

(* [M.f] pairs each rule bans, matched against resolved paths. *)
let charging_targets =
  [
    [ "Engine"; "advance" ];
    [ "Engine"; "advance_direct" ];
    [ "Meter"; "incr_id" ];
    [ "Meter"; "add_id" ];
    [ "Meter"; "set_id" ];
  ]

(* The string-keyed meter mutators (D11): a registration-time shim, not
   an emission path — every call re-hashes its key. Reads (Meter.get)
   are deliberately absent. *)
let string_keyed_targets =
  [ [ "Meter"; "incr" ]; [ "Meter"; "add" ]; [ "Meter"; "set" ] ]

(* The causal-fact publisher (D12): one banned name, because every
   ordering fact flows through it. Subscribing/reading stays open —
   analyzers and front ends consume anywhere. *)
let hb_publish_targets = [ [ "Hb"; "emit" ] ]

let page_copy_targets =
  [
    [ "Page"; "read_bytes" ];
    [ "Page"; "write_bytes" ];
    [ "Page"; "blit_out" ];
    [ "Page"; "blit_in" ];
    [ "Page"; "copy_into" ];
  ]
let fork_dup_targets = [ [ "Fdtable"; "dup_all" ] ]
let biglock_targets = [ [ "Kernel"; "with_biglock" ] ]

let wall_clock_targets =
  [
    [ "Sys"; "time" ];
    [ "Unix"; "gettimeofday" ];
    [ "Unix"; "time" ];
    [ "Unix"; "localtime" ];
    [ "Random"; "self_init" ];
    [ "Random"; "int" ];
    [ "Random"; "full_int" ];
    [ "Random"; "bits" ];
    [ "Random"; "bool" ];
    [ "Random"; "float" ];
  ]

let hashtbl_iter_targets = [ [ "Hashtbl"; "iter" ]; [ "Hashtbl"; "fold" ] ]

let sort_targets =
  [
    [ "List"; "sort" ];
    [ "List"; "stable_sort" ];
    [ "List"; "fast_sort" ];
    [ "List"; "sort_uniq" ];
    [ "Array"; "sort" ];
    [ "Array"; "stable_sort" ];
    [ "Array"; "fast_sort" ];
  ]

(* Capability operations that yield another capability: comparing their
   results polymorphically compares hidden structure. The scalar
   accessors (base, length, perms, ...) are fine to compare. *)
let cap_returning =
  [
    "root"; "mint"; "with_cursor"; "incr_cursor"; "restrict_perms";
    "set_bounds"; "clear_tag"; "seal"; "unseal"; "invoke"; "rebase";
  ]

(* Record fields that carry identity (mutable, aliased): equality on the
   record is identity confusion. *)
let identity_fields = [ "frame"; "pt" ]

let order_independent_attr = "ufork.order_independent"

(* Constructors of process-global mutable state (D14) when bound at the
   top level of a lib/ module. *)
let global_state_targets =
  [ [ "Atomic"; "make" ]; [ "Hashtbl"; "create" ]; [ "Mutex"; "create" ] ]

let global_ok_attr = "ufork.global_ok"

(* {1 Per-file analysis} *)

type ctx = {
  path : string;  (* repo-relative, '/' separators *)
  mutable aliases : (string * string list) list;  (* module alias -> path *)
  mutable opens : string list list;  (* resolved opened module paths *)
  mutable findings : finding list;
  (* D6 discharge state: [has_sort] is recomputed per top-level item;
     [order_ok_depth] counts enclosing [@ufork.order_independent]
     markers. *)
  mutable has_sort : bool;
  mutable order_ok_depth : int;
}

let resolve ctx path =
  match path with
  | head :: rest -> (
      match List.assoc_opt head ctx.aliases with
      | Some target -> target @ rest
      | None -> path)
  | [] -> []

let matches ctx path target =
  ends_with ~suffix:target path
  ||
  match (target, path) with
  | [ m; f ], [ f' ] when f = f' ->
      List.exists (fun o -> ends_with ~suffix:[ m ] o) ctx.opens
  | _ -> false

let report ctx (rule : Lint_rules.t) (loc : Location.t) message =
  if rule.Lint_rules.applies ctx.path then
    ctx.findings <-
      {
        rule;
        file = ctx.path;
        line = loc.Location.loc_start.Lexing.pos_lnum;
        col =
          loc.Location.loc_start.Lexing.pos_cnum
          - loc.Location.loc_start.Lexing.pos_bol;
        message;
      }
      :: ctx.findings

let pp_path ppf p =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ".")
    Format.pp_print_string ppf p

let name_of_target t = Format.asprintf "%a" pp_path t

(* The simple "this name is banned here" rules: D1, D2, D3, D5, D8.
   Checked on every identifier, so both calls and first-class uses
   (passing [Engine.advance] to a combinator) are caught. *)
let check_ident ctx loc path =
  let banned rule targets advice =
    List.iter
      (fun t ->
        if matches ctx path t then
          report ctx rule loc
            (Printf.sprintf "%s is off-limits here: %s"
               (name_of_target t) advice))
      targets
  in
  banned Lint_rules.charging charging_targets
    "route the charge through the event bus (Trace.emit)";
  banned Lint_rules.string_keyed_emission string_keyed_targets
    "intern the key once (Meter.intern) and emit through the typed event \
     bus; the string-keyed mutators re-hash per call";
  banned Lint_rules.hb_publish hb_publish_targets
    "only the mechanism layers publish ordering facts; record what \
     happened through their APIs (Sync, Engine, Trace spans) instead of \
     emitting directly";
  banned Lint_rules.page_copy page_copy_targets
    "use Memops.copy_range / Memops.duplicate_frame";
  banned Lint_rules.fork_dup fork_dup_targets
    "fork-path duplication belongs in Fork_spine.run";
  banned Lint_rules.wall_clock wall_clock_targets
    "use Engine.current_time / the seeded Ufork_util.Prng";
  banned Lint_rules.biglock biglock_targets
    "take the sharded lock for the resource instead (Kernel.with_uproc_table \
     / with_fd_tables / with_pt_shard / with_frame_pool / with_stats)";
  if List.length path >= 2 && List.nth path (List.length path - 2) = "Obj" then
    report ctx Lint_rules.obj_magic loc
      (Printf.sprintf "%s: Obj is banned outright" (name_of_target path));
  (* D6: unordered hash iteration, unless discharged. *)
  List.iter
    (fun t ->
      if matches ctx path t && (not ctx.has_sort) && ctx.order_ok_depth = 0
      then
        report ctx Lint_rules.hashtbl_order loc
          (Printf.sprintf
             "%s without a sort in the same definition: order is \
              unspecified — sort the result or mark the site \
              [@%s]"
             (name_of_target t) order_independent_attr))
    hashtbl_iter_targets

let ident_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> Some (Longident.flatten txt)
  | _ -> None

let is_string_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_string _) -> true
  | _ -> false

(* One operand of a polymorphic comparison that carries identity. *)
let rec identity_operand ctx e =
  match e.pexp_desc with
  | Pexp_field (_, { txt; _ }) ->
      let path = Longident.flatten txt in
      if List.exists (fun f -> ends_with ~suffix:[ f ] path) identity_fields
      then Some (Format.asprintf "field .%a" pp_path path)
      else None
  | Pexp_ident { txt; _ } ->
      let path = resolve ctx (Longident.flatten txt) in
      if ends_with ~suffix:[ "Capability"; "null" ] path then
        Some "Capability.null"
      else None
  | Pexp_apply (f, _) -> (
      match ident_path f with
      | Some p -> (
          let p = resolve ctx p in
          match List.rev p with
          | fn :: "Capability" :: _ when List.mem fn cap_returning ->
              Some (Printf.sprintf "Capability.%s ..." fn)
          | _ -> None)
      | None -> None)
  | Pexp_constraint (e, _) -> identity_operand ctx e
  | _ -> None

let poly_compare_name = function
  | [ "=" ] | [ "<>" ] | [ "compare" ]
  | [ "Stdlib"; "=" ] | [ "Stdlib"; "<>" ] | [ "Stdlib"; "compare" ] ->
      true
  | _ -> false

let has_order_attr attrs =
  List.exists
    (fun a -> a.attr_name.Location.txt = order_independent_attr)
    attrs

let check_apply ctx e f args =
  (* D4/D11: Trace.gauge with a literal key. One rule per site: D4
     (namespace discipline) where it applies; D11 (emission interning)
     covers the homes D4 exempts (lib/core declares the key constants
     but must not emit ad-hoc literals either). *)
  (match ident_path f with
  | Some p
    when matches ctx (resolve ctx p) [ "Trace"; "gauge" ]
         && List.exists (fun (_, a) -> is_string_literal a) args ->
      if Lint_rules.gauge_key.Lint_rules.applies ctx.path then
        report ctx Lint_rules.gauge_key e.pexp_loc
          "Trace.gauge with a string-literal key: declare the key as a \
           named constant (like Trace.last_fork_latency_key) and \
           reference it"
      else
        report ctx Lint_rules.string_keyed_emission e.pexp_loc
          "Trace.gauge with a string-literal key: reference a named key \
           constant so the key is interned once, not hashed per emission"
  | _ -> ());
  (* D7: polymorphic comparison with an identity-bearing operand. *)
  match ident_path f with
  | Some p when poly_compare_name (resolve ctx p) -> (
      (* One finding per comparison, even when both operands carry
         identity. *)
      match List.find_map (fun (_, a) -> identity_operand ctx a) args with
      | Some what ->
          report ctx Lint_rules.poly_compare e.pexp_loc
            (Printf.sprintf
               "polymorphic %s on %s compares structure, not identity — \
                use Capability.equal / Phys.id / (==)"
               (String.concat "." p) what)
      | None -> ())
  | _ -> ()

(* {1 The traversal} *)

let iterator ctx =
  let open Ast_iterator in
  let record_module_binding (mb : module_binding) =
    match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
    | Some name, Pmod_ident { txt; _ } ->
        ctx.aliases <-
          (name, resolve ctx (Longident.flatten txt)) :: ctx.aliases
    | _ -> ()
  in
  let record_open (od : open_declaration) =
    match od.popen_expr.pmod_desc with
    | Pmod_ident { txt; _ } ->
        ctx.opens <- resolve ctx (Longident.flatten txt) :: ctx.opens
    | _ -> ()
  in
  {
    default_iterator with
    module_binding =
      (fun it mb ->
        record_module_binding mb;
        default_iterator.module_binding it mb);
    open_declaration =
      (fun it od ->
        record_open od;
        default_iterator.open_declaration it od);
    value_binding =
      (fun it vb ->
        if has_order_attr vb.pvb_attributes then begin
          ctx.order_ok_depth <- ctx.order_ok_depth + 1;
          default_iterator.value_binding it vb;
          ctx.order_ok_depth <- ctx.order_ok_depth - 1
        end
        else default_iterator.value_binding it vb);
    expr =
      (fun it e ->
        let shielded = has_order_attr e.pexp_attributes in
        if shielded then ctx.order_ok_depth <- ctx.order_ok_depth + 1;
        (match e.pexp_desc with
        | Pexp_ident { txt; _ } ->
            check_ident ctx e.pexp_loc (resolve ctx (Longident.flatten txt))
        | Pexp_apply (f, args) -> check_apply ctx e f args
        | _ -> ());
        default_iterator.expr it e;
        if shielded then ctx.order_ok_depth <- ctx.order_ok_depth - 1);
  }

(* Does this top-level item sort anything? If so, its hash folds are
   presumed ordered by that sort (the standard collect-then-sort idiom)
   and D6 is discharged for the whole item. *)
let item_has_sort ctx (item : structure_item) =
  let found = ref false in
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } ->
              let p = resolve ctx (Longident.flatten txt) in
              if List.exists (fun t -> matches ctx p t) sort_targets then
                found := true
          | _ -> ());
          default_iterator.expr it e);
    }
  in
  it.structure_item it item;
  !found

(* Aliases and opens are collected file-globally before rule checks run,
   so a [module E = Engine] at the bottom still resolves uses above. *)
let collect_bindings ctx (str : structure) =
  let open Ast_iterator in
  let it =
    {
      default_iterator with
      module_binding =
        (fun it mb ->
          (match (mb.pmb_name.Location.txt, mb.pmb_expr.pmod_desc) with
          | Some name, Pmod_ident { txt; _ } ->
              ctx.aliases <- (name, Longident.flatten txt) :: ctx.aliases
          | _ -> ());
          default_iterator.module_binding it mb);
      open_declaration =
        (fun it od ->
          (match od.popen_expr.pmod_desc with
          | Pmod_ident { txt; _ } ->
              ctx.opens <- Longident.flatten txt :: ctx.opens
          | _ -> ());
          default_iterator.open_declaration it od);
    }
  in
  it.structure it str;
  (* Close alias chains (module A = B; module C = A.Sub). *)
  ctx.aliases <-
    List.map
      (fun (n, p) ->
        let rec close seen p =
          match p with
          | head :: rest when not (List.mem head seen) -> (
              match List.assoc_opt head ctx.aliases with
              | Some target -> close (head :: seen) (target @ rest)
              | None -> p)
          | _ -> p
        in
        (n, close [ n ] p))
      ctx.aliases;
  ctx.opens <- List.map (resolve ctx) ctx.opens

(* D14: a module-level binding whose value is fresh mutable state.
   Walks the top level and every nested [module M = struct ... end]; a
   binding is discharged by [@@ufork.global_ok "reason"], and the reason
   is mandatory. *)
let rec check_globals ctx (str : structure) =
  let rec fresh_state e =
    match e.pexp_desc with
    | Pexp_constraint (e, _) -> fresh_state e
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
        match resolve ctx (Longident.flatten txt) with
        | [ "ref" ] | [ "Stdlib"; "ref" ] -> Some "ref"
        | p ->
            List.find_opt (matches ctx p) global_state_targets
            |> Option.map name_of_target)
    | _ -> None
  in
  (* [Some reason] when discharged; an empty reason does not count. *)
  let discharge (vb : value_binding) =
    List.find_map
      (fun a ->
        if a.attr_name.Location.txt <> global_ok_attr then None
        else
          match a.attr_payload with
          | PStr
              [
                {
                  pstr_desc =
                    Pstr_eval
                      ( {
                          pexp_desc = Pexp_constant (Pconst_string (r, _, _));
                          _;
                        },
                        _ );
                  _;
                };
              ] ->
              Some (String.trim r)
          | _ -> Some "")
      vb.pvb_attributes
  in
  let rec nested me =
    match me.pmod_desc with
    | Pmod_structure str -> check_globals ctx str
    | Pmod_constraint (me, _) -> nested me
    | _ -> ()
  in
  List.iter
    (fun item ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun vb ->
              match (fresh_state vb.pvb_expr, discharge vb) with
              | None, _ -> ()
              | Some _, Some r when r <> "" -> ()
              | Some what, Some _ ->
                  report ctx Lint_rules.process_global vb.pvb_loc
                    (Printf.sprintf
                       "[@@%s] on this %s needs a reason: [@@%s \"why it \
                        is process-wide\"]"
                       global_ok_attr what global_ok_attr)
              | Some what, None ->
                  report ctx Lint_rules.process_global vb.pvb_loc
                    (Printf.sprintf
                       "module-level %s is process-global state shared by \
                        every machine: move it into the machine, or mark \
                        it [@@%s \"reason\"]"
                       what global_ok_attr))
            vbs
      | Pstr_module mb -> nested mb.pmb_expr
      | Pstr_recmodule mbs -> List.iter (fun mb -> nested mb.pmb_expr) mbs
      | _ -> ())
    str

(* {1 Entry points} *)

let lint_structure ctx (str : structure) =
  collect_bindings ctx str;
  check_globals ctx str;
  let it = iterator ctx in
  List.iter
    (fun item ->
      ctx.has_sort <- item_has_sort ctx item;
      it.Ast_iterator.structure_item it item)
    str

let lint_source ~path ~source =
  let ctx =
    {
      path;
      aliases = [];
      opens = [];
      findings = [];
      has_sort = false;
      order_ok_depth = 0;
    }
  in
  let lexbuf = Lexing.from_string source in
  Lexing.set_filename lexbuf path;
  (try
     if Filename.check_suffix path ".mli" then
       (* Interfaces carry no expressions, so no rule can fire — but
          parsing them keeps doc strings and signatures out of the
          matching surface and catches syntax rot. *)
       ignore (Parse.interface lexbuf)
     else lint_structure ctx (Parse.implementation lexbuf)
   with exn ->
    let msg =
      match Location.error_of_exn exn with
      | Some (`Ok e) -> Format.asprintf "%a" Location.print_report e
      | _ -> Printexc.to_string exn
    in
    ctx.findings <-
      {
        rule = Lint_rules.parse_error;
        file = path;
        line = 1;
        col = 0;
        message = msg;
      }
      :: ctx.findings);
  (* Stable order: by position in the file. *)
  List.sort
    (fun a b -> compare (a.line, a.col, a.rule.Lint_rules.id)
                  (b.line, b.col, b.rule.Lint_rules.id))
    ctx.findings

let read_file fn =
  let ic = open_in_bin fn in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let lint_file ~root rel =
  lint_source ~path:rel ~source:(read_file (Filename.concat root rel))

(* Every .ml/.mli under root/{lib,bin,bench,tools}, repo-relative,
   sorted — tools/ included so the linter self-hosts. *)
let tree_files root =
  let acc = ref [] in
  let rec walk rel =
    let abs = Filename.concat root rel in
    if Sys.is_directory abs then
      Array.iter
        (fun entry -> walk (Filename.concat rel entry))
        (Sys.readdir abs)
    else if
      Filename.check_suffix rel ".ml" || Filename.check_suffix rel ".mli"
    then acc := rel :: !acc
  in
  List.iter
    (fun d -> if Sys.file_exists (Filename.concat root d) then walk d)
    [ "lib"; "bin"; "bench"; "tools" ];
  List.sort compare !acc

let lint_tree root =
  List.concat_map (fun rel -> lint_file ~root rel) (tree_files root)

(* {1 Rendering} *)

let pp_finding ppf f =
  Format.fprintf ppf "%s:%d:%d: [%s:%s] %s" f.file f.line f.col
    f.rule.Lint_rules.id f.rule.Lint_rules.name f.message

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let to_json findings =
  let item f =
    Printf.sprintf
      "{\"id\":\"%s\",\"name\":\"%s\",\"severity\":\"%s\",\"file\":\"%s\",\"line\":%d,\"col\":%d,\"message\":\"%s\"}"
      f.rule.Lint_rules.id f.rule.Lint_rules.name f.rule.Lint_rules.severity
      (json_escape f.file) f.line f.col (json_escape f.message)
  in
  "[" ^ String.concat "," (List.map item findings) ^ "]"
