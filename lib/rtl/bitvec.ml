type t = { w : int; v : int }

let max_width = Sys.int_size - 1

module Raw = struct
  let mask w = if w = max_width then -1 lsr 1 else (1 lsl w) - 1

  let to_signed ~width v =
    if v land (1 lsl (width - 1)) <> 0 then v - (1 lsl width) else v

  let add ~width a b = (a + b) land mask width
  let sub ~width a b = (a - b) land mask width

  let mul ~width a b =
    (* Split to avoid overflow for wide vectors: (ah*2^h + al)(bh*2^h + bl) *)
    if width <= 31 then a * b land mask width
    else begin
      let h = width / 2 in
      let mh = mask h in
      let al = a land mh and ah = a lsr h in
      let bl = b land mh and bh = b lsr h in
      let low = al * bl in
      let mid = ((al * bh) + (ah * bl)) lsl h in
      (low + mid) land mask width
    end

  let neg ~width a = -a land mask width
  let logand a b = a land b
  let logor a b = a lor b
  let logxor a b = a lxor b
  let lognot ~width a = lnot a land mask width
  let shl ~width a n = if n >= width then 0 else a lsl n land mask width
  let lshr ~width a n = if n >= width then 0 else a lsr n

  let ashr ~width a n =
    let n = if n >= width then width - 1 else n in
    to_signed ~width a asr n land mask width

  let eq (a : int) b = Bool.to_int (a = b)
  let ne (a : int) b = Bool.to_int (a <> b)
  let ult (a : int) b = Bool.to_int (a < b)
  let ule (a : int) b = Bool.to_int (a <= b)
  let slt ~width a b = Bool.to_int (to_signed ~width a < to_signed ~width b)
  let sle ~width a b = Bool.to_int (to_signed ~width a <= to_signed ~width b)
  let redand ~width a = Bool.to_int (a = mask width)
  let redor a = Bool.to_int (a <> 0)

  let redxor a =
    let rec popcount acc v = if v = 0 then acc else popcount (acc + (v land 1)) (v lsr 1) in
    popcount 0 a land 1

  let concat ~lo_width hi lo = (hi lsl lo_width) lor lo
  let slice ~hi ~lo v = (v lsr lo) land mask (hi - lo + 1)
end

let check_width w =
  if w < 1 || w > max_width then
    invalid_arg (Printf.sprintf "Bitvec: width %d out of [1, %d]" w max_width)

let of_int ~width v =
  check_width width;
  { w = width; v = v land Raw.mask width }

let width t = t.w
let to_int t = t.v
let to_signed_int t = Raw.to_signed ~width:t.w t.v
let zero w = of_int ~width:w 0
let one w = of_int ~width:w 1
let ones w = { w; v = Raw.mask w }
let equal a b = a.w = b.w && a.v = b.v
let compare a b = Stdlib.compare (a.w, a.v) (b.w, b.v)
let hash t = Hashtbl.hash (t.w, t.v)
let is_zero t = t.v = 0

let bit t i =
  if i < 0 || i >= t.w then invalid_arg "Bitvec.bit: index out of range";
  t.v land (1 lsl i) <> 0

let same_width a b =
  assert (a.w = b.w);
  a.w

(* Boxed operations: check widths, then apply the unboxed kernel. *)
let add a b =
  let width = same_width a b in
  { w = width; v = Raw.add ~width a.v b.v }

let sub a b =
  let width = same_width a b in
  { w = width; v = Raw.sub ~width a.v b.v }

let mul a b =
  let width = same_width a b in
  { w = width; v = Raw.mul ~width a.v b.v }

let neg a = { w = a.w; v = Raw.neg ~width:a.w a.v }

let logand a b =
  let w = same_width a b in
  { w; v = Raw.logand a.v b.v }

let logor a b =
  let w = same_width a b in
  { w; v = Raw.logor a.v b.v }

let logxor a b =
  let w = same_width a b in
  { w; v = Raw.logxor a.v b.v }

let lognot a = { w = a.w; v = Raw.lognot ~width:a.w a.v }
let shl a b = { w = a.w; v = Raw.shl ~width:a.w a.v b.v }
let lshr a b = { w = a.w; v = Raw.lshr ~width:a.w a.v b.v }
let ashr a b = { w = a.w; v = Raw.ashr ~width:a.w a.v b.v }

let eq a b =
  let _ = same_width a b in
  { w = 1; v = Raw.eq a.v b.v }

let ne a b =
  let _ = same_width a b in
  { w = 1; v = Raw.ne a.v b.v }

let ult a b =
  let _ = same_width a b in
  { w = 1; v = Raw.ult a.v b.v }

let ule a b =
  let _ = same_width a b in
  { w = 1; v = Raw.ule a.v b.v }

let slt a b =
  let width = same_width a b in
  { w = 1; v = Raw.slt ~width a.v b.v }

let sle a b =
  let width = same_width a b in
  { w = 1; v = Raw.sle ~width a.v b.v }

let redand a = { w = 1; v = Raw.redand ~width:a.w a.v }
let redor a = { w = 1; v = Raw.redor a.v }
let redxor a = { w = 1; v = Raw.redxor a.v }

let concat hi lo =
  let w = hi.w + lo.w in
  check_width w;
  { w; v = Raw.concat ~lo_width:lo.w hi.v lo.v }

let slice t ~hi ~lo =
  if lo < 0 || hi >= t.w || hi < lo then
    invalid_arg
      (Printf.sprintf "Bitvec.slice: [%d:%d] out of range for width %d" hi lo t.w);
  { w = hi - lo + 1; v = Raw.slice ~hi ~lo t.v }

let zero_extend t w =
  if w < t.w then invalid_arg "Bitvec.zero_extend: narrower target";
  check_width w;
  { w; v = t.v }

let sign_extend t w =
  if w < t.w then invalid_arg "Bitvec.sign_extend: narrower target";
  check_width w;
  { w; v = to_signed_int t land Raw.mask w }

let pp fmt t = Format.fprintf fmt "%d'h%x" t.w t.v
let to_string t = Format.asprintf "%a" pp t
