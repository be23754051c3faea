type t = { words : int array; capacity : int }

let bits_per_word = Sys.int_size

let nwords n = if n = 0 then 0 else ((n - 1) / bits_per_word) + 1

let create n =
  if n < 0 then invalid_arg "Bitset.create: negative capacity";
  { words = Array.make (nwords n) 0; capacity = n }

let capacity t = t.capacity

let check t i =
  if i < 0 || i >= t.capacity then invalid_arg "Bitset: index out of range"

let mem t i =
  check t i;
  t.words.(i / bits_per_word) land (1 lsl (i mod bits_per_word)) <> 0

let add t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl (i mod bits_per_word))

let remove t i =
  check t i;
  let w = i / bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl (i mod bits_per_word))

let copy t = { t with words = Array.copy t.words }

(* The 64-bit SWAR count on the word's 63 bits: the masks' top bits
   wrap into the sign bit (bit 62), and the byte sums, at most 63, fit
   the top lane's 7 bits. *)
let popcount x =
  let x = x - ((x lsr 1) land 0x5555_5555_5555_5555) in
  let x = (x land 0x3333_3333_3333_3333) + ((x lsr 2) land 0x3333_3333_3333_3333) in
  let x = (x + (x lsr 4)) land 0x0f0f_0f0f_0f0f_0f0f in
  (x * 0x0101_0101_0101_0101) lsr 56

let cardinal t = Array.fold_left (fun acc w -> acc + popcount w) 0 t.words

let count_from t i =
  let i = max i 0 in
  if i >= t.capacity then 0
  else begin
    let w0 = i / bits_per_word in
    let count = ref (popcount (t.words.(w0) lsr (i mod bits_per_word))) in
    for w = w0 + 1 to Array.length t.words - 1 do
      count := !count + popcount t.words.(w)
    done;
    !count
  end

let is_empty t = Array.for_all (fun w -> w = 0) t.words

let same_capacity a b =
  if a.capacity <> b.capacity then invalid_arg "Bitset: capacity mismatch"

let union_into ~dst src =
  same_capacity dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) lor src.words.(i)
  done

let inter_into ~dst src =
  same_capacity dst src;
  for i = 0 to Array.length dst.words - 1 do
    dst.words.(i) <- dst.words.(i) land src.words.(i)
  done

let equal a b = a.capacity = b.capacity && a.words = b.words

let subset a b =
  same_capacity a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land lnot b.words.(i) <> 0 then ok := false
  done;
  !ok

let disjoint a b =
  same_capacity a b;
  let ok = ref true in
  for i = 0 to Array.length a.words - 1 do
    if a.words.(i) land b.words.(i) <> 0 then ok := false
  done;
  !ok

(* Shifts each word right past its zero bytes and stops at its highest
   set bit; [lsr] shifts the sign bit (bit 62) down like any other. *)
let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref t.words.(w) and i = ref (w * bits_per_word) in
    while !word <> 0 do
      while !word land 0xff = 0 do
        word := !word lsr 8;
        i := !i + 8
      done;
      if !word land 1 <> 0 then f !i;
      word := !word lsr 1;
      incr i
    done
  done

let num_words t = Array.length t.words

let word t w = t.words.(w)

let fold f t init =
  let acc = ref init in
  iter (fun i -> acc := f i !acc) t;
  !acc

let elements t = List.rev (fold (fun i acc -> i :: acc) t [])

let of_list n xs =
  let t = create n in
  List.iter (add t) xs;
  t

let full n =
  let t = create n in
  for i = 0 to n - 1 do
    add t i
  done;
  t

let complement t =
  let r = create t.capacity in
  for i = 0 to t.capacity - 1 do
    if not (mem t i) then add r i
  done;
  r
