(* Order statistics and the regression rule of the ledger's [compare]
   subcommand. Pure functions, so the tests can pin them without
   running a workload. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Python's [statistics.quantiles(xs, n=4)] (the default "exclusive"
   method), so the ledger's spreads match the ones computed from the
   same values with the standard library. *)
let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld < 2 then invalid_arg "Stats.quartiles: need at least 2 samples";
  let m = ld + 1 in
  let q i =
    let j = max 1 (min (ld - 1) (i * m / 4)) in
    let delta = (i * m) - (j * 4) in
    ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
    /. 4.0
  in
  (q 1, q 2, q 3)

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

(* Nearest-rank percentile: the value at rank ceil(p/100 * n). *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples";
  let rank = int_of_float (Float.ceil (float_of_int p /. 100.0 *. float_of_int n)) in
  a.(max 1 (min n rank) - 1)

let beyond p n =
  let rank = int_of_float (Float.ceil (float_of_int p /. 100.0 *. float_of_int n)) in
  n - max 1 (min n rank)

(* The highest whole percentile, above the median, that leaves at least
   [min_beyond] samples strictly past its rank; [None] when even p51
   does not. *)
let tail_percentile ?(min_beyond = 10) n =
  let rec go p =
    if p <= 50 then None
    else if beyond p n >= min_beyond then Some p
    else go (p - 1)
  in
  go 99

type better = Lower | Higher

let better_of_string = function
  | "lower" -> Some Lower
  | "higher" -> Some Higher
  | _ -> None

type verdict = Better | Worse | Unchanged | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Worse -> "worse"
  | Unchanged -> "unchanged"
  | Unresolved -> "unresolved"

type comparison = {
  cmp_verdict : verdict;
  cmp_b_wins : float;  (** share of (a_i, b_i) pairs B wins; ties count for neither *)
  cmp_change : float;  (** (median B - median A) / median A *)
}

(* [a] is the parent's runs, [b] the change's, paired by position. The
   limit is [bound] of A's median, but never less than [floor] (in the
   metric's unit). B is better when it wins at least 9/10 of the pairs
   and its median gain exceeds A's interquartile range; worse when its
   median loses more than the limit; unresolved when A's own spread is
   wider than the limit (unless every B run beats every A run) or there
   are too few runs to have quartiles. *)
let compare_runs ?(floor = 0.0) ~better ~bound ~a ~b () =
  let wins x y = match better with Lower -> x < y | Higher -> x > y in
  let rec zip xs ys =
    match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []
  in
  let pairs = zip a b in
  let n_pairs = List.length pairs in
  let b_wins = List.length (List.filter (fun (x, y) -> wins y x) pairs) in
  let share =
    if n_pairs = 0 then 0.0 else float_of_int b_wins /. float_of_int n_pairs
  in
  let med_a = median a and med_b = median b in
  let change = if med_a = 0.0 then 0.0 else (med_b -. med_a) /. med_a in
  let verdict =
    if List.length a < 2 || List.length b < 2 then Unresolved
    else
      let spread = iqr a in
      let gain = match better with Lower -> med_a -. med_b | Higher -> med_b -. med_a in
      let limit = Float.max floor (bound *. Float.abs med_a) in
      let all_b_better =
        List.for_all (fun y -> List.for_all (fun x -> wins y x) a) b
      in
      if share >= 0.9 && gain > spread then Better
      else if spread > limit && not all_b_better then Unresolved
      else if -.gain > limit then Worse
      else Unchanged
  in
  { cmp_verdict = verdict; cmp_b_wins = share; cmp_change = change }
