(** Simulated-calendar helpers.

    Simulation time is seconds since an epoch fixed at Monday 00:00.
    The testing framework's peak-hours and week-end policies, and the
    monthly reliability series, are all expressed on this calendar. *)

val minute : float
val hour : float
val day : float
val week : float

val month : float
(** A scheduling month, fixed at 30 days to make series regular. *)

val hour_of_day : float -> int
(** Hour in [\[0, 23\]] of a simulation instant. *)

val day_of_week : float -> int
(** 0 = Monday ... 6 = Sunday. *)

val is_weekend : float -> bool

val is_peak_hours : float -> bool
(** Working hours on working days: Monday-Friday, 08:00-19:00 — the window
    during which the paper's scheduler avoids competing with users. *)

val peak_end : float -> float
(** The instant the current day's peak window closes (19:00 on the same
    day).  Only meaningful for instants satisfying {!is_peak_hours}. *)

val day_index : float -> int
(** Whole days elapsed since the epoch. *)

val month_index : float -> int
(** Whole 30-day months elapsed since the epoch. *)

val pp_instant : Format.formatter -> float -> unit
(** Render as [d<day> hh:mm:ss], e.g. [d012 13:05:00]. *)

val to_string : float -> string
