module Writer = struct
  type t = { mutable buf : Bytes.t; mutable bits : int }

  let create () = { buf = Bytes.make 16 '\000'; bits = 0 }

  let length_bits w = w.bits

  (* pdm-lint: domain local — writer cursor is stack-local codec state, never shared *)
  let ensure w extra_bits =
    let needed = Imath.cdiv (w.bits + extra_bits) 8 in
    let cap = Bytes.length w.buf in
    if needed > cap then begin
      let cap' = max needed (2 * cap) in
      let buf' = Bytes.make cap' '\000' in
      Bytes.blit w.buf 0 buf' 0 cap;
      w.buf <- buf'
    end

  (* pdm-lint: domain local — writer cursor is stack-local codec state, never shared *)
  let add_bit w b =
    ensure w 1;
    if b then begin
      let byte = w.bits lsr 3 and off = w.bits land 7 in
      let cur = Char.code (Bytes.get w.buf byte) in
      Bytes.set w.buf byte (Char.chr (cur lor (0x80 lsr off)))
    end;
    w.bits <- w.bits + 1

  (* Each step fills the rest of the current byte (bits past the
     cursor are still zero). *)
  (* pdm-lint: domain local — writer cursor is stack-local codec state, never shared *)
  let add_bits w ~value ~width =
    if width < 0 || width > 62 then invalid_arg "Bitbuf.add_bits: width";
    if width < 62 && value lsr width <> 0 then
      invalid_arg "Bitbuf.add_bits: value does not fit width";
    if value < 0 then invalid_arg "Bitbuf.add_bits: negative value";
    ensure w width;
    let left = ref width in
    while !left > 0 do
      let byte = w.bits lsr 3 and room = 8 - (w.bits land 7) in
      let n = min room !left in
      let chunk = (value lsr (!left - n)) land ((1 lsl n) - 1) in
      let cur = Char.code (Bytes.get w.buf byte) in
      Bytes.set w.buf byte (Char.chr (cur lor (chunk lsl (room - n))));
      w.bits <- w.bits + n;
      left := !left - n
    done

  let add_unary w n =
    if n < 0 then invalid_arg "Bitbuf.add_unary";
    for _ = 1 to n do add_bit w true done;
    add_bit w false

  let add_varint w n =
    if n < 0 then invalid_arg "Bitbuf.add_varint";
    let rec groups n =
      let low = n land 0x7f and rest = n lsr 7 in
      if rest = 0 then add_bits w ~value:low ~width:8
      else begin
        add_bits w ~value:(0x80 lor low) ~width:8;
        groups rest
      end
    in
    groups n

  let contents w = Bytes.sub w.buf 0 (Imath.cdiv w.bits 8)
end

module Reader = struct
  type t = { data : Bytes.t; len_bits : int; mutable pos : int }

  let of_bytes b = { data = b; len_bits = 8 * Bytes.length b; pos = 0 }

  let of_writer w =
    { data = Writer.contents w; len_bits = Writer.length_bits w; pos = 0 }

  let pos r = r.pos

  let remaining r = r.len_bits - r.pos

  (* pdm-lint: domain local — reader cursor is stack-local codec state, never shared *)
  let read_bit r =
    if r.pos >= r.len_bits then invalid_arg "Bitbuf.read_bit: end of buffer";
    let byte = r.pos lsr 3 and off = r.pos land 7 in
    r.pos <- r.pos + 1;
    Char.code (Bytes.get r.data byte) land (0x80 lsr off) <> 0

  (* Each step takes the rest of the current byte. *)
  (* pdm-lint: domain local — reader cursor is stack-local codec state, never shared *)
  let read_bits r ~width =
    if width < 0 || width > 62 then invalid_arg "Bitbuf.read_bits: width";
    if remaining r < width then invalid_arg "Bitbuf.read_bits: end of buffer";
    let v = ref 0 and left = ref width in
    while !left > 0 do
      let byte = Char.code (Bytes.get r.data (r.pos lsr 3)) in
      let room = 8 - (r.pos land 7) in
      let n = min room !left in
      v := (!v lsl n) lor ((byte lsr (room - n)) land ((1 lsl n) - 1));
      r.pos <- r.pos + n;
      left := !left - n
    done;
    !v

  let read_unary r =
    let n = ref 0 in
    while read_bit r do incr n done;
    !n

  let read_varint r =
    let rec groups acc shift =
      let g = read_bits r ~width:8 in
      let acc = acc lor ((g land 0x7f) lsl shift) in
      if g land 0x80 = 0 then acc else groups acc (shift + 7)
    in
    groups 0 0

  let seek r p =
    if p < 0 || p > r.len_bits then invalid_arg "Bitbuf.seek";
    r.pos <- p
end
