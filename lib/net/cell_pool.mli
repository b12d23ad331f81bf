(** A grow-only pool of reusable event cells (link deliveries, host
    arrivals): one per packet concurrently in that stage, reused for the
    rest of the run.

    Free cells are tracked by index on an int stack rather than threaded
    through a pointer free-list, so taking and releasing a cell stores
    only ints: a pointer store into a block of the major heap pays OCaml
    5's write barrier.  The arrays double when full. *)

type 'a t

val create : unit -> 'a t

(** [take t make ctx] is a free cell, or a new one [make ctx index] when
    none is free; the new cell's [index] is what it must later pass to
    {!release}.  [make] is a plain function of [ctx] so that a call
    builds no closure. *)
val take : 'a t -> ('ctx -> int -> 'a) -> 'ctx -> 'a

(** Return the cell with this index to the pool. *)
val release : 'a t -> int -> unit
