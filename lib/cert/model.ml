module L = Satsolver.Lit

let lit_true value l = if L.sign l then value (L.var l) else not (value (L.var l))

(* The obligation a model answers: each assumption literal of the solve
   must hold too, or the model answers a different question. *)
let check_assumptions ~assumptions ~value =
  match List.find_index (fun l -> not (lit_true value l)) assumptions with
  | None -> Ok ()
  | Some i ->
      Error (Printf.sprintf "model falsifies assumption %d of the solve" i)

let falsified i =
  Error (Printf.sprintf "model falsifies clause %d of the formula" i)

let check ~clauses ~assumptions ~value =
  let rec loop i = function
    | [] -> check_assumptions ~assumptions ~value
    | c :: rest ->
        if List.exists (lit_true value) c then loop (i + 1) rest
        else falsified i
  in
  loop 0 clauses

exception Falsified of int

let check_held ~held ~assumptions ~value =
  let holds l = lit_true value (L.of_int l) in
  let n = ref 0 in
  let clause data off len =
    let rec sat k = k < off + len && (holds data.(k) || sat (k + 1)) in
    if not (sat off) then raise (Falsified !n);
    incr n
  in
  match held clause with
  | () -> check_assumptions ~assumptions ~value
  | exception Falsified i -> falsified i
