(* dsa — typed-AST domain-safety & determinism analyzer.

   Usage: dsa [--json] [--strict] [--src-root DIR] [--uses DIR]... ROOT...

   Each ROOT is a directory walked for .cmt artifacts (or a literal
   .cmt path). Each --uses DIR is walked the same way, but only for
   references that keep a ROOT export in use; nothing in it is
   checked. Output mirrors `oshil lint`: human per-file sections or
   a single-line JSON array with --json; exit 1 on errors, or on
   warnings too under --strict. *)

module Analyze = Dsa_core.Analyze
module D = Check.Diagnostic

let usage =
  "usage: dsa [--json] [--strict] [--src-root DIR] [--uses DIR]... ROOT..."

let () =
  let json = ref false in
  let strict = ref false in
  let src_root = ref None in
  let uses = ref [] in
  let roots = ref [] in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest ->
      json := true;
      parse rest
    | "--strict" :: rest ->
      strict := true;
      parse rest
    | "--src-root" :: dir :: rest ->
      src_root := Some dir;
      parse rest
    | "--uses" :: dir :: rest ->
      uses := dir :: !uses;
      parse rest
    | ("--help" | "-h") :: _ ->
      print_endline usage;
      exit 0
    | arg :: _ when String.length arg > 1 && arg.[0] = '-' ->
      prerr_endline ("dsa: unknown option " ^ arg);
      prerr_endline usage;
      exit 2
    | root :: rest ->
      roots := root :: !roots;
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  let roots = List.rev !roots in
  if roots = [] then begin
    prerr_endline usage;
    exit 2
  end;
  let report =
    Analyze.run ?src_root:!src_root ~uses:(List.rev !uses) roots
  in
  if report.Analyze.modules = 0 then begin
    prerr_endline
      "dsa: no .cmt artifacts found (build the tree first: dune build)";
    exit 2
  end;
  if !json then begin
    let entry (f, ds) = D.file_to_json ~file:f ds in
    print_endline
      (Printf.sprintf "[%s]"
         (String.concat "," (List.map entry report.Analyze.diags)))
  end
  else begin
    List.iter
      (fun (f, ds) ->
        Format.printf "%s:@." f;
        List.iter (fun d -> Format.printf "  %a@." D.pp d) ds;
        Format.printf "%s: %d error(s), %d warning(s), %d note(s)@." f
          (D.count_severity D.Error ds)
          (D.count_severity D.Warning ds)
          (D.count_severity D.Info ds))
      report.Analyze.diags;
    Format.printf "dsa: %d module(s) analyzed, %d file(s) with findings, %d \
                   waived@."
      report.Analyze.modules
      (List.length report.Analyze.diags)
      report.Analyze.waived
  end;
  let all = List.concat_map snd report.Analyze.diags in
  if
    D.errors all <> []
    || (!strict && D.count_severity D.Warning all > 0)
  then exit 1
