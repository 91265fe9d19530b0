(* Aggregation arithmetic for fan-out payloads. See merge.mli. *)

module Wire = Rvu_service.Wire

(* ------------------------------------------------------------------ *)
(* stats: structural numeric sum *)

let rec sum_json vs =
  match vs with
  | [] -> Wire.Null
  | [ v ] -> v
  | first :: _ -> (
      match first with
      | Wire.Obj _ ->
          (* Key order: first appearance across the shard payloads, so a
             field only one shard reports still shows up. *)
          let objs =
            List.filter_map
              (function Wire.Obj _ as o -> Some o | _ -> None)
              vs
          in
          let keys = ref [] in
          List.iter
            (function
              | Wire.Obj fields ->
                  List.iter
                    (fun (k, _) ->
                      if not (List.mem k !keys) then keys := k :: !keys)
                    fields
              | _ -> ())
            objs;
          Wire.Obj
            (List.map
               (fun k -> (k, sum_json (List.filter_map (Wire.member k) objs)))
               (List.rev !keys))
      | Wire.Int _ | Wire.Float _ ->
          let ints_only = ref true and total = ref 0.0 and itotal = ref 0 in
          let numeric = ref false in
          List.iter
            (function
              | Wire.Int n ->
                  numeric := true;
                  itotal := !itotal + n;
                  total := !total +. float_of_int n
              | Wire.Float f ->
                  numeric := true;
                  ints_only := false;
                  total := !total +. f
              | _ -> ())
            vs;
          if not !numeric then first
          else if !ints_only then Wire.Int !itotal
          else Wire.Float !total
      | v -> v)

(* member lookup keeps first-field semantics; the filter_map above drops
   shards that lack the key, which is what "sum of what was reported"
   means. *)
