type t = {
  u : int;
  v : int;
  d : int;
  striped : bool;
  width : int;  (* v / d *)
  f : int -> int -> int;
}

let create ?(striped = false) ~u ~v ~d f =
  if u < 1 || v < 1 || d < 1 then invalid_arg "Bipartite.create: sizes";
  if striped && v mod d <> 0 then
    invalid_arg "Bipartite.create: striped graph needs d | v";
  { u; v; d; striped; width = v / d; f }

let u g = g.u
let v g = g.v
let d g = g.d
let is_striped g = g.striped
let stripe_width g = g.width

(* Stripe i is [i·width, (i+1)·width): checked without dividing. *)
let neighbor g x i =
  if x < 0 || x >= g.u then invalid_arg "Bipartite.neighbor: x out of range";
  if i < 0 || i >= g.d then invalid_arg "Bipartite.neighbor: i out of range";
  let y = g.f x i in
  if y < 0 || y >= g.v then invalid_arg "Bipartite.neighbor: f out of range";
  if g.striped then begin
    let lo = i * g.width in
    if y < lo || y >= lo + g.width then
      invalid_arg "Bipartite.neighbor: f leaves its stripe"
  end;
  y

let neighbors g x = Array.init g.d (fun i -> neighbor g x i)

let require_striped g fn =
  if not g.striped then invalid_arg (fn ^ ": graph is not striped")

let neighbor_in_stripe g x i =
  require_striped g "Bipartite.neighbor_in_stripe";
  let y = neighbor g x i in
  (i, y mod stripe_width g)

let stripe_of g y =
  require_striped g "Bipartite.stripe_of";
  if y < 0 || y >= g.v then invalid_arg "Bipartite.stripe_of: out of range";
  let w = stripe_width g in
  (y / w, y mod w)
