type span = {
  id : int;
  parent : int option;
  name : string;
  start_s : float;
  duration_s : float;
  attrs : Attr.t;
}

type event = {
  name : string;
  time_s : float;
  span : int option;
  attrs : Attr.t;
}

let attrs_field = function
  | [] -> []
  | attrs -> [ ("attrs", Attr.to_json attrs) ]

let span_to_json (s : span) =
  Json.Obj
    ([ ("type", Json.Str "span"); ("id", Json.Int s.id) ]
    @ (match s.parent with
      | Some p -> [ ("parent", Json.Int p) ]
      | None -> [])
    @ [
        ("name", Json.Str s.name);
        ("start_s", Json.Float s.start_s);
        ("duration_s", Json.Float s.duration_s);
      ]
    @ attrs_field s.attrs)

let event_to_json (e : event) =
  Json.Obj
    ([ ("type", Json.Str "event"); ("name", Json.Str e.name);
       ("time_s", Json.Float e.time_s) ]
    @ (match e.span with
      | Some p -> [ ("span", Json.Int p) ]
      | None -> [])
    @ attrs_field e.attrs)
