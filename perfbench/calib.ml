(* Host-speed probe: a fixed piece of compiler-like work (build, simplify,
   hash and print expression trees) that no change to srp can touch.  Run
   in small units interleaved with a pass, it samples how fast the host is
   running while the pass runs. *)

type e = Num of int | Var of int | Add of e * e | Mul of e * e

let rec build st d =
  st := ((!st * 1103515245) + 12345) land 0x3fffffff;
  if d <= 0 then if !st land 1 = 0 then Num (!st lsr 1 land 255) else Var (!st land 7)
  else
    let a = build st (d - 1) in
    let b = build st (d - 1 - (!st land 1)) in
    if !st land 2 = 0 then Add (a, b) else Mul (a, b)

let rec simplify = function
  | Add (a, b) -> (
    match (simplify a, simplify b) with
    | Num x, Num y -> Num ((x + y) land 0xffff)
    | Num 0, e | e, Num 0 -> e
    | a, b -> Add (a, b))
  | Mul (a, b) -> (
    match (simplify a, simplify b) with
    | Num x, Num y -> Num (x * y land 0xffff)
    | Num 1, e | e, Num 1 -> e
    | a, b -> Mul (a, b))
  | e -> e

let rec print buf = function
  | Num n -> Buffer.add_string buf (string_of_int n)
  | Var v -> Buffer.add_char buf (Char.chr (97 + v))
  | Add (a, b) | Mul (a, b) ->
    Buffer.add_char buf '(';
    print buf a;
    Buffer.add_char buf ' ';
    print buf b;
    Buffer.add_char buf ')'

let spent = ref 0.0
let units = ref 0
let times : float list ref = ref []  (* unit times since [reset], newest first *)
let sink = ref 0

(* One unit, about 1 ms on a 2-core 2.1 GHz Xeon container. *)
let probe () =
  let t0 = Srp_obs.Clock.now () in
  let seen = Hashtbl.create 64 in
  let buf = Buffer.create 4096 in
  for i = 1 to 40 do
    let e = simplify (build (ref i) 9) in
    Buffer.clear buf;
    print buf e;
    Hashtbl.replace seen (Hashtbl.hash (Buffer.contents buf)) e
  done;
  sink := !sink + Hashtbl.length seen;
  let dt = Srp_obs.Clock.now () -. t0 in
  spent := !spent +. dt;
  incr units;
  times := dt :: !times;
  dt

let reset () =
  spent := 0.0;
  units := 0;
  times := []

(* The units taken since [reset]: an item measured now has this many
   before it. *)
let mark () = !units

(* The reference speed: one unit in 1 ms. *)
let reference = 0.001

(* Factor taking host seconds measured since [reset] to seconds at the
   reference speed. *)
let scale () = if !units = 0 then 1.0 else reference /. (!spent /. float_of_int !units)

(* Factors like [scale]'s, one per item, from the [window] units either
   side of the item's [mark] rather than the whole pass: the host's speed
   also drifts within a pass, by a quarter from one second to the next,
   and a pass-wide factor leaves that drift in the items' latencies. *)
let local ~window =
  let ts = Array.of_list (List.rev !times) in
  let n = Array.length ts in
  let whole = scale () in
  fun mark ->
    let lo = max 0 (mark - window) and hi = min n (mark + window) in
    if hi <= lo then whole
    else begin
      let s = ref 0.0 in
      for i = lo to hi - 1 do
        s := !s +. ts.(i)
      done;
      reference /. (!s /. float_of_int (hi - lo))
    end
