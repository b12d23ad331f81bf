type 'a t = {
  mutable cells : 'a array;  (* [cells.(0 .. count-1)] *)
  mutable count : int;
  mutable free : int array;  (* stack of free cell indices *)
  mutable n_free : int;
}

let create () = { cells = [||]; count = 0; free = [||]; n_free = 0 }

let take t make ctx =
  if t.n_free > 0 then begin
    t.n_free <- t.n_free - 1;
    t.cells.(t.free.(t.n_free))
  end
  else begin
    let i = t.count in
    let cell = make ctx i in
    if i = Array.length t.cells then begin
      let cap = max 8 (2 * i) in
      let cells = Array.make cap cell in
      Array.blit t.cells 0 cells 0 i;
      t.cells <- cells;
      (* Every cell can be free at once, so the stack matches the pool. *)
      let free = Array.make cap 0 in
      Array.blit t.free 0 free 0 t.n_free;
      t.free <- free
    end
    else t.cells.(i) <- cell;
    t.count <- i + 1;
    cell
  end

let release t i =
  t.free.(t.n_free) <- i;
  t.n_free <- t.n_free + 1
