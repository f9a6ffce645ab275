type failure = { site : string; error : Oshil_error.t }
type t = { attempted : int; failures : failure list }

let make ~attempted failures = { attempted; failures }
let failed t = List.length t.failures
let is_clean t = t.failures = []

let merge a b =
  { attempted = a.attempted + b.attempted; failures = a.failures @ b.failures }

let pp ppf t =
  if is_clean t then
    Format.fprintf ppf "all %d points ok" t.attempted
  else begin
    Format.fprintf ppf "%d/%d points failed:" (failed t) t.attempted;
    List.iter
      (fun f ->
        Format.fprintf ppf "@\n  %s: %a" f.site Oshil_error.pp f.error)
      t.failures
  end

let to_string t = Format.asprintf "%a" pp t
