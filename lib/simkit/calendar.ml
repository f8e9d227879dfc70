let minute = 60.0
let hour = 3600.0
let day = 86400.0
let week = 7.0 *. day
let month = 30.0 *. day

let day_index time = int_of_float (Float.max 0.0 time /. day)
let month_index time = int_of_float (Float.max 0.0 time /. month)

let seconds_into_day time =
  let t = Float.max 0.0 time in
  t -. (float_of_int (day_index t) *. day)

let hour_of_day time = int_of_float (seconds_into_day time /. hour)
let day_of_week time = day_index time mod 7
let is_weekend time = day_of_week time >= 5

let is_peak_hours time =
  (not (is_weekend time))
  &&
  let h = hour_of_day time in
  h >= 8 && h < 19

let peak_end time =
  (float_of_int (day_index time) *. day) +. (19.0 *. hour)

let pp_instant ppf time =
  let t = Float.max 0.0 time in
  let d = day_index t in
  let rest = seconds_into_day t in
  let h = int_of_float (rest /. hour) in
  let m = int_of_float ((rest -. (float_of_int h *. hour)) /. minute) in
  let s = int_of_float (rest -. (float_of_int h *. hour) -. (float_of_int m *. minute)) in
  Format.fprintf ppf "d%03d %02d:%02d:%02d" d h m s

let to_string time = Format.asprintf "%a" pp_instant time
