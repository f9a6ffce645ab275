(* Typed-AST walk over the .cmt artifacts dune produces. See the .mli
   for the rule inventory and the documented approximations. *)

module D = Check.Diagnostic

let rule_codes =
  [ "domain-escape"; "cache-purity"; "float-order"; "raise-escape"; "unused-export" ]

type finding = { line : int; code : string; msg : string }

(* ------------------------------------------------------------------ *)
(* Path helpers: all matching is on dotted suffixes of [Path.name], so
   [Stdlib.Hashtbl.fold], [Hashtbl.fold] and [MoreLabels.Hashtbl.fold]
   all answer to ["Hashtbl.fold"]. *)

let path_has_suffix name suffix =
  name = suffix
  ||
  let nl = String.length name and sl = String.length suffix in
  nl > sl + 1
  && name.[nl - sl - 1] = '.'
  && String.sub name (nl - sl) sl = suffix

let path_matches p suffixes =
  let n = Path.name p in
  List.exists (path_has_suffix n) suffixes

(* ------------------------------------------------------------------ *)
(* Type classification: syntactic, on constructor heads. *)

type mut =
  | Mut of string  (** why: "ref", "Hashtbl.t", "array", ... *)
  | Sync  (** Atomic/Mutex/DLS — a recognized synchronization type *)
  | Pure

let sync_heads =
  [
    "Atomic.t";
    "Mutex.t";
    "Condition.t";
    "Semaphore.Counting.t";
    "Semaphore.Binary.t";
    "Domain.DLS.key";
  ]

let container_heads = [ "Hashtbl.t"; "Buffer.t"; "Queue.t"; "Stack.t" ]

let rec classify ?(depth = 0) ty =
  if depth > 8 then Pure
  else
    match Types.get_desc ty with
    | Types.Tconstr (p, args, _) ->
      let n = Path.name p in
      if List.exists (path_has_suffix n) sync_heads then Sync
      else if path_has_suffix n "ref" then Mut "ref"
      else if n = "array" || n = "floatarray" || path_has_suffix n "Float.Array.t"
      then Mut "array"
      else if n = "bytes" then Mut "bytes"
      else begin
        match List.find_opt (path_has_suffix n) container_heads with
        | Some head -> Mut head
        | None ->
          if n = "option" || n = "list" || path_has_suffix n "result" then
            List.fold_left
              (fun acc a ->
                match acc with
                | Mut _ | Sync -> acc
                | Pure -> classify ~depth:(depth + 1) a)
              Pure args
          else Pure
      end
    | Types.Ttuple ts ->
      List.fold_left
        (fun acc a ->
          match acc with
          | Mut _ | Sync -> acc
          | Pure -> classify ~depth:(depth + 1) a)
        Pure ts
    | Types.Tpoly (t, _) -> classify ~depth:(depth + 1) t
    | _ -> Pure

let rec type_mentions_float ?(depth = 0) ty =
  depth <= 8
  &&
  match Types.get_desc ty with
  | Types.Tconstr (p, args, _) ->
    Path.name p = "float"
    || List.exists (type_mentions_float ~depth:(depth + 1)) args
  | Types.Ttuple ts -> List.exists (type_mentions_float ~depth:(depth + 1)) ts
  | Types.Tarrow (_, a, b, _) ->
    type_mentions_float ~depth:(depth + 1) a
    || type_mentions_float ~depth:(depth + 1) b
  | Types.Tpoly (t, _) -> type_mentions_float ~depth:(depth + 1) t
  | _ -> false

let is_arrow ty =
  match Types.get_desc ty with
  | Types.Tarrow _ | Types.Tpoly _ -> true
  | _ -> false

(* ------------------------------------------------------------------ *)
(* Recognized operations *)

let pool_entry_points =
  [
    "Pool.parallel_for";
    "Pool.parallel_init";
    "Pool.parallel_map_array";
    "Pool.parallel_try_map_array";
  ]

let ref_writers = [ ":="; "incr"; "decr" ]

let array_writers =
  [
    "Array.set";
    "Array.unsafe_set";
    "Array.fill";
    "Array.blit";
    "Float.Array.set";
    "Bytes.set";
    "Bytes.unsafe_set";
    "Bytes.fill";
    "Bytes.blit";
  ]

let nondet_calls =
  [
    "Unix.gettimeofday";
    "Unix.time";
    "Sys.time";
    "Random.int";
    "Random.float";
    "Random.bool";
    "Random.bits";
    "Random.self_init";
    "Domain.self";
    "Clock.now_ns";
    "Clock.elapsed_ns";
    "Clock.now";
  ]

let apply_head e =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Some p
  | _ -> None

let exn_path_of_construct (cd : Types.constructor_description) =
  match cd.Types.cstr_tag with
  | Types.Cstr_extension (p, _) -> Some p
  | _ -> None

(* ------------------------------------------------------------------ *)
(* Per-module analysis *)

type ctx = {
  modname : string;
  mli_text : string option;
  mutable module_mutables : Ident.t list;
      (** structure-level bindings with a mutable type *)
  mutable handler_stack : string list;
      (** exception constructor names caught by lexically enclosing
          handlers; ["*"] is a catch-all *)
  mutable out : finding list;
}

let report ctx ~line ~code msg = ctx.out <- { line; code; msg } :: ctx.out

let line_of (e : Typedtree.expression) =
  e.Typedtree.exp_loc.Location.loc_start.Lexing.pos_lnum

(* names an exception-handler pattern can catch *)
let rec handler_names : type k. k Typedtree.general_pattern -> string list =
 fun p ->
  match p.Typedtree.pat_desc with
  | Typedtree.Tpat_any | Typedtree.Tpat_var _ -> [ "*" ]
  | Typedtree.Tpat_alias (q, _, _) -> handler_names q
  | Typedtree.Tpat_construct (_, cd, _, _) -> [ cd.Types.cstr_name ]
  | Typedtree.Tpat_or (a, b, _) -> handler_names a @ handler_names b
  | Typedtree.Tpat_value v ->
    handler_names (v :> Typedtree.value Typedtree.general_pattern)
  | Typedtree.Tpat_exception q -> handler_names q
  | _ -> []

let subtree_has_lock outer =
  let found = ref false in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match apply_head e with
          | Some p when path_matches p [ "Mutex.lock"; "Mutex.protect" ] ->
            found := true
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it outer;
  !found

(* --- domain-escape: walk one closure passed to a Pool entry point --- *)

let walk_pool_closure ctx pool_name outer =
  let bound : Ident.t list ref = ref [] in
  let add_ids ids = bound := ids @ !bound in
  let add_pat : type k. k Typedtree.general_pattern -> unit =
   fun p -> add_ids (Typedtree.pat_bound_idents p)
  in
  let is_local id = List.exists (Ident.same id) !bound in
  let guarded = subtree_has_lock outer in
  let escape e name why action =
    if not guarded then
      report ctx ~line:(line_of e) ~code:"domain-escape"
        (Printf.sprintf
           "%s %s (%s) bound outside a closure passed to %s; use Atomic, a \
            Mutex, or per-domain state (Kernel.with_bufs / Domain.DLS)"
           action name why pool_name)
  in
  let nonlocal_mut (arg : Typedtree.expression) =
    match arg.Typedtree.exp_desc with
    | Typedtree.Texp_ident (Path.Pident id, _, _) when is_local id -> None
    | Typedtree.Texp_ident (p, _, _) -> begin
      match classify arg.Typedtree.exp_type with
      | Mut why -> Some (Path.name p, why)
      | Sync | Pure -> None
    end
    | _ -> None
  in
  let rec walk e =
    let open Typedtree in
    match e.exp_desc with
    | Texp_function { param; cases; _ } ->
      add_ids [ param ];
      List.iter
        (fun c ->
          add_pat c.c_lhs;
          Option.iter walk c.c_guard;
          walk c.c_rhs)
        cases
    | Texp_let (_, vbs, body) ->
      List.iter (fun vb -> add_pat vb.vb_pat) vbs;
      List.iter (fun vb -> walk vb.vb_expr) vbs;
      walk body
    | Texp_match (scrut, cases, _) ->
      walk scrut;
      List.iter
        (fun c ->
          add_pat c.c_lhs;
          Option.iter walk c.c_guard;
          walk c.c_rhs)
        cases
    | Texp_try (body, cases) ->
      walk body;
      List.iter
        (fun c ->
          add_pat c.c_lhs;
          Option.iter walk c.c_guard;
          walk c.c_rhs)
        cases
    | Texp_for (id, _, lo, hi, _, body) ->
      add_ids [ id ];
      walk lo;
      walk hi;
      walk body
    | Texp_setfield (base, _, _, value) ->
      (match nonlocal_mut base with
      | Some (name, _) -> escape e name "mutable record field" "write to"
      | None ->
        (* a write through any non-local ident of record type is a
           shared mutation even if the head type is not in the table *)
        (match base.exp_desc with
        | Texp_ident (Path.Pident id, _, _) when is_local id -> ()
        | Texp_ident (p, _, _) ->
          escape e (Path.name p) "mutable record field" "write to"
        | _ -> ()));
      walk base;
      walk value
    | Texp_apply (f, args) ->
      (match apply_head f with
      | Some p when path_matches p ref_writers ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some a -> (
              match nonlocal_mut a with
              | Some (name, why) -> escape a name why "write to"
              | None -> ())
            | None -> ())
          args
      | Some p when path_matches p array_writers ->
        List.iter
          (fun (_, a) ->
            match a with
            | Some a -> (
              match nonlocal_mut a with
              | Some (name, why) when why = "array" || why = "bytes" ->
                escape a name why "write to"
              | _ -> ())
            | None -> ())
          args
      | _ -> ());
      walk f;
      List.iter (fun (_, a) -> Option.iter walk a) args
    | Texp_ident (Path.Pident id, _, _) when is_local id -> ()
    | Texp_ident (p, _, _) -> begin
      (* shared containers are flagged on any captured use; refs,
         arrays and bytes only when written (reads of a frozen input
         are the normal way to feed a parallel kernel) *)
      match classify e.exp_type with
      | Mut why when List.mem why container_heads ->
        escape e (Path.name p) why "shared use of"
      | _ -> ()
    end
    | _ ->
      (* generic recursion for the remaining constructors *)
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ e' -> if e' != e then walk e');
        }
      in
      Tast_iterator.default_iterator.expr it e
  in
  walk outer

(* --- cache-purity: walk expressions feeding Cache.Key.v --- *)

let walk_key_fields ctx outer =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun sub e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> begin
            let module_level =
              match p with
              | Path.Pident id ->
                List.exists (Ident.same id) ctx.module_mutables
              | _ -> true
            in
            if path_matches p nondet_calls then
              report ctx ~line:(line_of e) ~code:"cache-purity"
                (Printf.sprintf
                   "nondeterministic value %s flows into a Cache.Key — equal \
                    inputs must yield byte-identical preimages"
                   (Path.name p))
            else if module_level then begin
              match classify e.Typedtree.exp_type with
              | Mut why ->
                report ctx ~line:(line_of e) ~code:"cache-purity"
                  (Printf.sprintf
                     "mutable state %s (%s) read while building a Cache.Key; \
                      keys must depend only on the kernel's declared inputs"
                     (Path.name p) why)
              | Sync | Pure -> ()
            end
          end
          | _ -> ());
          Tast_iterator.default_iterator.expr sub e);
    }
  in
  it.expr it outer

(* ------------------------------------------------------------------ *)

let analyze_structure ~modname ~mli_text (str : Typedtree.structure) =
  let ctx =
    { modname; mli_text; module_mutables = []; handler_stack = []; out = [] }
  in
  (* pass A: structure-level bindings with mutable types (any module
     nesting depth, but never bindings inside expressions) *)
  let pass_a =
    {
      Tast_iterator.default_iterator with
      structure_item =
        (fun sub item ->
          (match item.Typedtree.str_desc with
          | Typedtree.Tstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                List.iter
                  (fun id ->
                    match classify vb.Typedtree.vb_pat.Typedtree.pat_type with
                    | Mut _ -> ctx.module_mutables <- id :: ctx.module_mutables
                    | Sync | Pure -> ())
                  (Typedtree.pat_bound_idents vb.Typedtree.vb_pat))
              vbs
          | _ -> ());
          Tast_iterator.default_iterator.structure_item sub item);
      (* do not descend into expressions: only structure-level lets *)
      expr = (fun _ _ -> ());
    }
  in
  pass_a.structure pass_a str;

  let mli_mentions word =
    match ctx.mli_text with
    | None -> false
    | Some text ->
      (* word-boundary search so [Error] does not match [Errors] *)
      let wl = String.length word and n = String.length text in
      let is_word c =
        match c with
        | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
        | _ -> false
      in
      let rec find i =
        if i + wl > n then false
        else if
          String.sub text i wl = word
          && (i = 0 || not (is_word text.[i - 1]))
          && (i + wl = n || not (is_word text.[i + wl]))
        then true
        else find (i + 1)
      in
      find 0
  in
  let exn_documented exn_path =
    let last = Path.last exn_path in
    let name = Path.name exn_path in
    path_has_suffix name "Oshil_error.Error"
    || (path_has_suffix ctx.modname "Oshil_error" && last = "Error")
    || mli_mentions last
    || (last = "Invalid_argument" && mli_mentions "invalid_arg")
    || (last = "Failure" && mli_mentions "failwith")
    || List.exists
         (fun h -> h = "*" || h = last)
         ctx.handler_stack
  in
  let raise_escape e exn_path =
    if not (exn_documented exn_path) then
      report ctx ~line:(line_of e) ~code:"raise-escape"
        (Printf.sprintf
           "%s can escape the library interface untyped; raise \
            Resilience.Oshil_error.Error, declare/document the exception in \
            this module's .mli, or catch it locally"
           (Path.last exn_path))
  in
  let predef name = Path.Pident (Ident.create_predef name) in

  let rec main_expr sub (e : Typedtree.expression) =
    let open Typedtree in
    match e.exp_desc with
    | Texp_try (body, cases) ->
      let caught = List.concat_map (fun c -> handler_names c.c_lhs) cases in
      let saved = ctx.handler_stack in
      ctx.handler_stack <- caught @ saved;
      main_expr sub body;
      ctx.handler_stack <- saved;
      List.iter
        (fun c ->
          Option.iter (main_expr sub) c.c_guard;
          main_expr sub c.c_rhs)
        cases
    | Texp_match (scrut, cases, _) ->
      let caught =
        List.concat_map
          (fun c ->
            match Typedtree.split_pattern c.c_lhs with
            | _, Some exn_pat -> handler_names exn_pat
            | _, None -> [])
          cases
      in
      let saved = ctx.handler_stack in
      ctx.handler_stack <- caught @ saved;
      main_expr sub scrut;
      ctx.handler_stack <- saved;
      List.iter
        (fun c ->
          Option.iter (main_expr sub) c.c_guard;
          main_expr sub c.c_rhs)
        cases
    | Texp_apply (f, args) ->
      (match apply_head f with
      (* domain-escape: every function-typed argument of a Pool entry
         point is a closure that will run on worker domains *)
      | Some p when path_matches p pool_entry_points ->
        if not (path_has_suffix ctx.modname "Pool") then
          List.iter
            (fun (_, a) ->
              match a with
              | Some a when is_arrow a.exp_type ->
                walk_pool_closure ctx (Path.name p) a
              | _ -> ())
            args
      (* cache-purity: Cache.Key.v field lists *)
      | Some p when path_matches p [ "Cache.Key.v"; "Key.v" ] ->
        if not (path_has_suffix ctx.modname "Key") then
          List.iter (fun (_, a) -> Option.iter (walk_key_fields ctx) a) args
      (* cache-purity: nonlinearities built without a canonical identity *)
      | Some p
        when path_matches p [ "Nonlinearity.make" ]
             || (path_has_suffix ctx.modname "Nonlinearity"
                && (match p with
                   | Path.Pident id -> Ident.name id = "make"
                   | _ -> false)) ->
        (* at a total application the elaborator fills an omitted ?key
           with an explicit [None] construct; at a partial one the arg
           slot itself is [None] *)
        let key_omitted =
          List.exists
            (fun (l, a) ->
              match (l, a) with
              | Asttypes.Optional "key", None -> true
              | Asttypes.Optional "key", Some arg -> (
                match arg.Typedtree.exp_desc with
                | Typedtree.Texp_construct (_, cd, _) ->
                  cd.Types.cstr_name = "None"
                | _ -> false)
              | _ -> false)
            args
        in
        if key_omitted && not (is_arrow e.exp_type) then
          report ctx ~line:(line_of e) ~code:"cache-purity"
            "Nonlinearity.make without ~key builds an uncacheable \
             nonlinearity: every kernel keyed on it silently bypasses the \
             result cache; pass ~key (only if the string fully determines f \
             bit-for-bit) or waive"
      (* float-order: unordered iteration feeding float accumulation *)
      | Some p when path_matches p [ "Hashtbl.fold" ] ->
        if type_mentions_float e.exp_type then
          report ctx ~line:(line_of e) ~code:"float-order"
            "Hashtbl.fold accumulating a float: iteration order is \
             unspecified and float addition is not associative — collect, \
             sort by key, then fold"
      | Some p when path_matches p [ "Hashtbl.iter" ] ->
        let mutates_float =
          List.exists
            (fun (_, a) ->
              match a with
              | Some a when is_arrow a.exp_type ->
                let found = ref false in
                let it =
                  {
                    Tast_iterator.default_iterator with
                    expr =
                      (fun sub' e' ->
                        (match e'.exp_desc with
                        | Texp_setfield (_, _, _, v)
                          when type_mentions_float v.exp_type ->
                          found := true
                        | Texp_apply (g, gargs) -> (
                          match apply_head g with
                          | Some gp when path_matches gp [ ":=" ] ->
                            List.iter
                              (fun (_, ga) ->
                                match ga with
                                | Some ga
                                  when type_mentions_float ga.exp_type ->
                                  found := true
                                | _ -> ())
                              gargs
                          | _ -> ())
                        | _ -> ());
                        Tast_iterator.default_iterator.expr sub' e');
                  }
                in
                it.expr it a;
                !found
              | _ -> false)
            args
        in
        if mutates_float then
          report ctx ~line:(line_of e) ~code:"float-order"
            "Hashtbl.iter mutating float state: iteration order is \
             unspecified — iterate a sorted snapshot instead"
      | Some p when path_matches p [ "Seq.fold_left" ] ->
        let over_hashtbl =
          List.exists
            (fun (_, a) ->
              match a with
              | Some a -> (
                let found = ref false in
                let it =
                  {
                    Tast_iterator.default_iterator with
                    expr =
                      (fun sub' e' ->
                        (match apply_head e' with
                        | Some gp
                          when path_matches gp
                                 [
                                   "Hashtbl.to_seq";
                                   "Hashtbl.to_seq_keys";
                                   "Hashtbl.to_seq_values";
                                 ] ->
                          found := true
                        | _ -> ());
                        Tast_iterator.default_iterator.expr sub' e');
                  }
                in
                it.expr it a;
                !found)
              | None -> false)
            args
        in
        if over_hashtbl && type_mentions_float e.exp_type then
          report ctx ~line:(line_of e) ~code:"float-order"
            "Seq.fold_left over Hashtbl.to_seq accumulating a float: \
             iteration order is unspecified — sort before folding"
      (* raise-escape *)
      | Some p when path_matches p [ "Stdlib.raise"; "Stdlib.raise_notrace" ]
        -> (
        match args with
        | (_, Some arg) :: _ -> (
          match arg.exp_desc with
          | Texp_construct (_, cd, _) -> (
            match exn_path_of_construct cd with
            | Some exn_path -> raise_escape e exn_path
            | None -> ())
          | _ -> () (* re-raise of a caught value: fine *))
        | _ -> ())
      | Some p when path_matches p [ "Stdlib.invalid_arg" ] ->
        raise_escape e (predef "Invalid_argument")
      | Some p when path_matches p [ "Stdlib.failwith" ] ->
        raise_escape e (predef "Failure")
      | _ -> ());
      Tast_iterator.default_iterator.expr sub e
    | _ -> Tast_iterator.default_iterator.expr sub e
  in
  let it = { Tast_iterator.default_iterator with expr = main_expr } in
  it.structure it str;
  List.rev ctx.out

(* ------------------------------------------------------------------ *)
(* unused-export: a whole-program pass. Every path is flattened to
   components headed by a compilation-unit name
   (["Numerics__Roots"; "brent"]); dune's wrapper aliases and facade
   re-exports are then rewritten through the [module M = P] bindings
   the units themselves declare. *)

type uses = {
  unit_name : string;
  values : string list list;  (** every value identifier *)
  whole : string list list;
      (** modules used as a whole: included, packed, functor arguments *)
  aliases : (string * string list) list;  (** top-level [module M = P] *)
}

let rec alias_target (me : Typedtree.module_expr) =
  match me.Typedtree.mod_desc with
  | Typedtree.Tmod_ident (p, _) -> Some p
  | Typedtree.Tmod_constraint (me, _, _, _) -> alias_target me
  | _ -> None

let scan_uses ~modname (str : Typedtree.structure) =
  let locals = Hashtbl.create 16 in
  let rec comps = function
    | Path.Pident id when Ident.global id -> Some [ Ident.name id ]
    | Path.Pident id -> (
      match Hashtbl.find_opt locals (Ident.unique_name id) with
      | Some target -> comps target
      | None -> Some [ modname; Ident.name id ])
    | Path.Pdot (p, s) -> Option.map (fun c -> c @ [ s ]) (comps p)
    | _ -> None
  in
  let bind id me =
    match (id, alias_target me) with
    | Some id, Some p ->
      Hashtbl.replace locals (Ident.unique_name id) p;
      true
    | _ -> false
  in
  let values = ref [] and whole = ref [] in
  let record acc p = Option.iter (fun c -> acc := c :: !acc) (comps p) in
  let open Tast_iterator in
  let it =
    {
      default_iterator with
      module_binding =
        (fun sub mb ->
          if not (bind mb.Typedtree.mb_id mb.Typedtree.mb_expr) then
            default_iterator.module_binding sub mb);
      open_declaration =
        (fun sub od ->
          if alias_target od.Typedtree.open_expr = None then
            default_iterator.open_declaration sub od);
      module_expr =
        (fun sub me ->
          match me.Typedtree.mod_desc with
          | Typedtree.Tmod_ident (p, _) -> record whole p
          | _ -> default_iterator.module_expr sub me);
      expr =
        (fun sub e ->
          match e.Typedtree.exp_desc with
          | Typedtree.Texp_ident (p, _, _) -> record values p
          | Typedtree.Texp_letmodule (id, _, _, me, body) when bind id me ->
            sub.expr sub body
          | _ -> default_iterator.expr sub e);
    }
  in
  it.structure it str;
  let aliases =
    List.filter_map
      (fun item ->
        match item.Typedtree.str_desc with
        | Typedtree.Tstr_module { mb_id = Some id; mb_expr; _ } ->
          Option.bind (alias_target mb_expr) (fun p ->
              Option.map (fun c -> (Ident.name id, c)) (comps p))
        | _ -> None)
      str.Typedtree.str_items
  in
  { unit_name = modname; values = !values; whole = !whole; aliases }

(* [val]s of an interface, nested signatures included, as
   (path headed by the unit name, line of the [val]) *)
let exports ~modname (sg : Typedtree.signature) =
  let rec go prefix (sg : Typedtree.signature) acc =
    List.fold_left
      (fun acc item ->
        match item.Typedtree.sig_desc with
        | Typedtree.Tsig_value vd ->
          ( prefix @ [ Ident.name vd.Typedtree.val_id ],
            vd.Typedtree.val_loc.Location.loc_start.Lexing.pos_lnum )
          :: acc
        | Typedtree.Tsig_module
            {
              md_id = Some id;
              md_type = { mty_desc = Typedtree.Tmty_signature sg; _ };
              _;
            } ->
          go (prefix @ [ Ident.name id ]) sg acc
        | _ -> acc)
      acc sg.Typedtree.sig_items
  in
  List.rev (go [ modname ] sg [])

(* The unused-export findings of one interface, given every unit's
   uses. A use from the exporting unit itself only picks the message. *)
let unused_exports all_uses =
  let aliases = Hashtbl.create 64 in
  List.iter
    (fun u ->
      List.iter
        (fun (m, target) -> Hashtbl.replace aliases (u.unit_name, m) target)
        u.aliases)
    all_uses;
  let rec canonical fuel = function
    | u :: m :: rest as c -> (
      match Hashtbl.find_opt aliases (u, m) with
      | Some target when fuel > 0 -> canonical (fuel - 1) (target @ rest)
      | _ -> c)
    | c -> c
  in
  let outside = Hashtbl.create 1024 and inside = Hashtbl.create 1024 in
  let outside_whole = ref [] in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          match canonical 16 v with
          | head :: _ as c when head = u.unit_name -> Hashtbl.replace inside c ()
          | c -> Hashtbl.replace outside c ())
        u.values;
      List.iter
        (fun m -> outside_whole := canonical 16 m :: !outside_whole)
        u.whole)
    all_uses;
  let rec is_prefix a b =
    match (a, b) with
    | [], _ -> true
    | x :: a', y :: b' -> x = y && is_prefix a' b'
    | _ :: _, [] -> false
  in
  fun ~modname sg ->
    List.filter_map
      (fun (path, line) ->
        if
          Hashtbl.mem outside path
          || List.exists (fun m -> is_prefix m path) !outside_whole
        then None
        else
          let name = String.concat "." (List.tl path) in
          let msg =
            if Hashtbl.mem inside path then
              Printf.sprintf
                "%s is exported but only its own module uses it; take it out \
                 of the .mli"
                name
            else
              Printf.sprintf
                "%s is exported but no other module uses it (tests do not \
                 count); delete it, or waive with the reason it stays"
                name
          in
          Some { line; code = "unused-export"; msg })
      (exports ~modname sg)

(* ------------------------------------------------------------------ *)
(* Artifact discovery, source resolution, waiver filtering *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let resolve_source ?src_root rel =
  let candidates =
    (match src_root with Some r -> [ Filename.concat r rel ] | None -> [])
    @ [ rel; Filename.concat (Filename.concat "_build" "default") rel ]
  in
  List.find_opt Sys.file_exists candidates

(* Drop the findings a justified waiver in [file] covers and report the
   waivers that lack a justification or cover nothing. Returns the
   diagnostics and the number of findings waived. *)
let apply_waivers ?src_root ~file findings =
  let diag severity ~code ~line msg =
    D.make severity ~code ~loc:(Printf.sprintf "%s:%d" file line) msg
  in
  let waivers =
    match resolve_source ?src_root file with
    | Some path -> Waiver.scan (read_file path)
    | None -> []
  in
  let kept =
    List.filter
      (fun f ->
        match
          List.find_opt
            (fun w -> Waiver.covers w ~code:f.code ~line:f.line)
            waivers
        with
        | Some w ->
          w.Waiver.used <- true;
          false
        | None -> true)
      findings
  in
  let meta (w : Waiver.t) =
    if not w.justified then
      Some
        (diag D.Warning ~code:"bad-waiver" ~line:w.line
           (Printf.sprintf
              "waiver for %s has no justification — write (* dsa: allow %s — \
               why *); the finding is not suppressed"
              w.code w.code))
    else if not w.used then
      Some
        (diag D.Warning ~code:"unused-waiver" ~line:w.line
           (Printf.sprintf "waiver for %s matches no finding" w.code))
    else None
  in
  ( List.map (fun f -> diag D.Error ~code:f.code ~line:f.line f.msg) kept
    @ List.filter_map meta waivers,
    List.length findings - List.length kept )

(* The per-module rules over one artifact: its source file, the
   diagnostics left after waivers, and how many were waived; [None] for
   dune's generated alias modules and artifacts of no implementation *)
let check_implementation ?src_root (cmt : Cmt_format.cmt_infos) =
  match (cmt.Cmt_format.cmt_annots, cmt.Cmt_format.cmt_sourcefile) with
  | Cmt_format.Implementation str, Some src
    when not (Filename.check_suffix src ".ml-gen") ->
    let mli_text =
      Option.map read_file (resolve_source ?src_root (src ^ "i"))
    in
    let ds, waived =
      apply_waivers ?src_root ~file:src
        (analyze_structure ~modname:cmt.Cmt_format.cmt_modname ~mli_text str)
    in
    Some (src, ds, waived)
  | _ -> None

let cmt_read_warning path =
  D.warning ~code:"cmt-read" ~loc:path
    "unreadable .cmt artifact (compiler version mismatch?)"

let analyze_file ?src_root cmt_path =
  match Cmt_format.read_cmt cmt_path with
  | exception _ -> [ cmt_read_warning cmt_path ]
  | cmt -> (
    match check_implementation ?src_root cmt with
    | Some (_, ds, _) -> ds
    | None -> [])

type report = {
  diags : (string * D.t list) list;
  modules : int;
  waived : int;
}

let rec walk_dir dir acc =
  match Sys.readdir dir with
  | exception Sys_error _ -> acc
  | entries ->
    Array.sort String.compare entries;
    Array.fold_left
      (fun acc entry ->
        let path = Filename.concat dir entry in
        if Sys.is_directory path then walk_dir path acc
        else if Filename.check_suffix path ".cmt" then path :: acc
        else acc)
      acc entries

let collect_cmts root =
  if Sys.file_exists root && not (Sys.is_directory root) then [ root ]
  else if Sys.file_exists root then walk_dir root []
  else []

let run ?src_root ?(uses = []) roots =
  let collect prefix dirs =
    List.sort_uniq String.compare
      (List.concat_map (fun r -> collect_cmts (prefix r)) dirs)
  in
  let cmts, prefix, src_root =
    match collect Fun.id roots with
    | [] ->
      (* source-checkout convenience: retry under the build context *)
      let prefix = Filename.concat "_build/default" in
      ( collect prefix roots,
        prefix,
        match src_root with Some _ -> src_root | None -> Some "_build/default"
      )
    | direct -> (direct, Fun.id, src_root)
  in
  let by_file = Hashtbl.create 64 in
  let add file ds =
    if ds <> [] then
      Hashtbl.replace by_file file
        (ds @ Option.value ~default:[] (Hashtbl.find_opt by_file file))
  in
  let waived = ref 0 in
  let interfaces = ref [] in
  let read path =
    match Cmt_format.read_cmt path with exception _ -> None | cmt -> Some cmt
  in
  let uses_of (cmt : Cmt_format.cmt_infos) =
    match cmt.Cmt_format.cmt_annots with
    | Cmt_format.Implementation str ->
      Some (scan_uses ~modname:cmt.Cmt_format.cmt_modname str)
    | _ -> None
  in
  let root_uses =
    List.filter_map
      (fun cmt_path ->
        match read cmt_path with
        | None ->
          add cmt_path [ cmt_read_warning cmt_path ];
          None
        | Some cmt ->
          Option.iter
            (fun (src, ds, w) ->
              add src ds;
              waived := !waived + w)
            (check_implementation ?src_root cmt);
          (match read (Filename.remove_extension cmt_path ^ ".cmti") with
          | Some
              {
                cmt_annots = Cmt_format.Interface sg;
                cmt_sourcefile = Some mli;
                cmt_modname;
                _;
              } ->
            interfaces := (cmt_modname, mli, sg) :: !interfaces
          | _ -> ());
          uses_of cmt)
      cmts
  in
  let other_uses =
    List.filter_map
      (fun path -> Option.bind (read path) uses_of)
      (collect prefix uses)
  in
  let unused = unused_exports (root_uses @ other_uses) in
  List.iter
    (fun (modname, mli, sg) ->
      let ds, w = apply_waivers ?src_root ~file:mli (unused ~modname sg) in
      add mli ds;
      waived := !waived + w)
    !interfaces;
  let line_no (d : D.t) =
    match String.index_opt d.D.loc ':' with
    | Some i -> (
      match
        int_of_string_opt
          (String.sub d.D.loc (i + 1) (String.length d.D.loc - i - 1))
      with
      | Some l -> l
      | None -> 0)
    | None -> 0
  in
  let diags =
    Hashtbl.fold (fun file ds acc -> (file, ds) :: acc) by_file []
    |> List.map (fun (file, ds) ->
           ( file,
             List.sort
               (fun a b ->
                 match Int.compare (line_no a) (line_no b) with
                 | 0 -> String.compare a.D.code b.D.code
                 | c -> c)
               ds ))
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  { diags; modules = List.length cmts; waived = !waived }
