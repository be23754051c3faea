type violation =
  | Site_not_total of { site : int; step_a : int; step_b : int }
  | Duplicate_lock of { entity : Database.entity; steps : int list }
  | Duplicate_unlock of { entity : Database.entity; steps : int list }
  | Lock_without_unlock of { entity : Database.entity; lock : int }
  | Unlock_without_lock of { entity : Database.entity; unlock : int }
  | Unlock_not_after_lock of {
      entity : Database.entity;
      lock : int;
      unlock : int;
    }
  | Update_outside_section of { entity : Database.entity; update : int }
  | Update_without_lock of { entity : Database.entity; update : int }
  | Empty_section of { entity : Database.entity }

let check ?(strict = false) db t =
  let violations = ref [] in
  let report v = violations := v :: !violations in
  let n = Txn.num_steps t in
  let step i = Txn.step t i in
  (* Per-site totality, over the sites the steps use, ascending. *)
  let sites = Array.init n (fun i -> Database.site db (step i).Step.entity) in
  let used =
    Array.fold_left
      (fun acc s -> if List.exists (Int.equal s) acc then acc else s :: acc)
      [] sites
  in
  let at_site = Array.make n 0 in
  List.iter
    (fun site ->
      let m = ref 0 in
      for i = 0 to n - 1 do
        if sites.(i) = site then begin
          at_site.(!m) <- i;
          incr m
        end
      done;
      for a = 0 to !m - 1 do
        for b = a + 1 to !m - 1 do
          let step_a = at_site.(a) and step_b = at_site.(b) in
          if Txn.concurrent t step_a step_b then
            report (Site_not_total { site; step_a; step_b })
        done
      done)
    (List.sort Int.compare used);
  (* Lock discipline per entity: the steps sorted by entity, then by
     index, packed as [entity lsl bits lor index]; each entity's steps
     are one run. *)
  let bits = ref 0 in
  while 1 lsl !bits < n do
    incr bits
  done;
  let bits = !bits in
  let by_entity =
    Array.init n (fun i -> ((step i).Step.entity lsl bits) lor i)
  in
  Array.sort Int.compare by_entity;
  let lo = ref 0 in
  while !lo < n do
    let e = by_entity.(!lo) lsr bits in
    let hi = ref (!lo + 1) in
    while !hi < n && by_entity.(!hi) lsr bits = e do
      incr hi
    done;
    let of_kind kind =
      let acc = ref [] in
      for k = !hi - 1 downto !lo do
        let i = by_entity.(k) land ((1 lsl bits) - 1) in
        if (step i).Step.action = kind then acc := i :: !acc
      done;
      !acc
    in
    let locks = of_kind Step.Lock in
    let unlocks = of_kind Step.Unlock in
    let updates = of_kind Step.Update in
    (match locks with
    | _ :: _ :: _ -> report (Duplicate_lock { entity = e; steps = locks })
    | _ -> ());
    (match unlocks with
    | _ :: _ :: _ -> report (Duplicate_unlock { entity = e; steps = unlocks })
    | _ -> ());
    (match (locks, unlocks) with
    | [], [] ->
        List.iter
          (fun u -> report (Update_without_lock { entity = e; update = u }))
          updates
    | l :: _, [] -> report (Lock_without_unlock { entity = e; lock = l })
    | [], u :: _ -> report (Unlock_without_lock { entity = e; unlock = u })
    | l :: _, u :: _ ->
        if not (Txn.precedes t l u) then
          report (Unlock_not_after_lock { entity = e; lock = l; unlock = u });
        List.iter
          (fun up ->
            if not (Txn.precedes t l up && Txn.precedes t up u) then
              report (Update_outside_section { entity = e; update = up }))
          updates;
        if strict && updates = [] then report (Empty_section { entity = e }));
    lo := !hi
  done;
  List.rev !violations

let to_string db t v =
  let ename e = Database.name db e in
  let sname i = Txn.label t i in
  match v with
  | Site_not_total { site; step_a; step_b } ->
      Printf.sprintf "steps %s and %s at site %d are not ordered" (sname step_a)
        (sname step_b) site
  | Duplicate_lock { entity; _ } ->
      Printf.sprintf "more than one lock step for %s" (ename entity)
  | Duplicate_unlock { entity; _ } ->
      Printf.sprintf "more than one unlock step for %s" (ename entity)
  | Lock_without_unlock { entity; _ } ->
      Printf.sprintf "lock %s has no matching unlock" (ename entity)
  | Unlock_without_lock { entity; _ } ->
      Printf.sprintf "unlock %s has no matching lock" (ename entity)
  | Unlock_not_after_lock { entity; _ } ->
      Printf.sprintf "unlock %s does not follow lock %s" (ename entity)
        (ename entity)
  | Update_outside_section { entity; update } ->
      Printf.sprintf "update step %s of %s is not inside its locked section"
        (sname update) (ename entity)
  | Update_without_lock { entity; update } ->
      Printf.sprintf "update step %s of %s is not protected by a lock"
        (sname update) (ename entity)
  | Empty_section { entity } ->
      Printf.sprintf "lock/unlock pair for %s surrounds no update"
        (ename entity)

let check_exn ?strict db t =
  match check ?strict db t with
  | [] -> ()
  | vs ->
      let msgs = List.map (to_string db t) vs in
      invalid_arg
        (Printf.sprintf "transaction %s is not well-formed: %s" (Txn.name t)
           (String.concat "; " msgs))
