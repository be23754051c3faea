type 'ev verdict = Safe | Unsafe of 'ev | Unknown of string

type stage_status = Decided | Passed | Errored

type stage_trace = {
  stage : string;
  procedure : Checker.procedure;
  status : stage_status;
  detail : string;
  seconds : float;
  attrs : Distlock_obs.Attr.t;
}

type 'ev t = {
  verdict : 'ev verdict;
  procedure : Checker.procedure option;
  detail : string;
  trace : stage_trace list;
  seconds : float;
  cached : bool;
}

let decided t = match t.verdict with Unknown _ -> false | Safe | Unsafe _ -> true

let provenance t =
  match t.procedure with
  | Some p -> Checker.procedure_label p
  | None -> "undecided"

let status_label = function
  | Decided -> "decided"
  | Passed -> "passed"
  | Errored -> "ERROR"

let pp_trace ppf trace =
  Format.fprintf ppf "@[<v>";
  List.iteri
    (fun i s ->
      if i > 0 then Format.fprintf ppf "@,";
      Format.fprintf ppf "%-12s [%-7s] %-7s %8.3f ms  %s" s.stage
        (Checker.procedure_label s.procedure)
        (status_label s.status) (s.seconds *. 1_000.) s.detail)
    trace;
  Format.fprintf ppf "@]"
