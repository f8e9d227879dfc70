(** Cron expressions on the simulated calendar ("Jenkins: cron on
    steroids").

    Five fields: minute, hour, day-of-month, month, day-of-week.  Each
    field accepts [*], [*/n], single values, comma lists and [a-b]
    ranges.  Day-of-week uses cron numbering (0 = Sunday).  The simulated
    calendar repeats 30-day months starting on a Monday. *)

type t

val parse : string -> (t, string) result
val parse_exn : string -> t

val matches : t -> float -> bool
(** Whether the minute containing the instant matches. *)

val next_fire : t -> after:float -> float
(** First matching minute boundary strictly after [after].
    @raise Failure if nothing matches within 10 simulated years (a
    contradiction such as day 31 in the 30-day calendar). *)
