(** Small numeric toolbox used by the dynamics analyses. *)

val mean : float array -> float
(** @raise Invalid_argument on an empty array. *)

val variance : float array -> float
(** Population variance. @raise Invalid_argument on an empty array. *)

val stddev : float array -> float

val pearson : float array -> float array -> float
(** Pearson correlation coefficient.  Returns [0.] if either input is
    (numerically) constant.  @raise Invalid_argument if lengths differ or
    are zero. *)

val pearson_by : int -> (int -> float) -> (int -> float) -> float
(** [pearson_by n x y] is [pearson] of [x 0 .. x (n-1)] and
    [y 0 .. y (n-1)], bit for bit, without the arrays.
    @raise Invalid_argument if [n <= 0]. *)

val median : float array -> float
(** @raise Invalid_argument on an empty array. *)

val percentile : float array -> p:float -> float
(** Nearest-rank percentile, [p] in [\[0, 100\]].
    @raise Invalid_argument on an empty array or [p] out of range. *)

val minimum : float array -> float
val maximum : float array -> float

val histogram : float array -> bins:int -> lo:float -> hi:float -> int array
(** Counts per bin over [\[lo, hi)]; values outside are clamped into the
    first/last bin.  @raise Invalid_argument if [bins <= 0] or [hi <= lo]. *)
