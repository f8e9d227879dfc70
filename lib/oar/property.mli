(** The OAR property database.

    "OAR database filled from Reference API": properties are derived from
    the published Reference API documents, not from ground truth, so a
    stale description propagates into scheduling — exactly the failure
    mode the [oarproperties] test family looks for.  The
    [oar-property-desync] fault additionally corrupts the database copy
    itself. *)

type t

val create : unit -> t

val refresh_from_refapi : t -> Testbed.Faults.ctx -> bool
(** Bring the property rows up to date with the current Reference API
    documents and the active [oar_desync] corruption flags.  A host's
    row is recomputed only when its inputs changed: its document was
    replaced (documents are immutable, so physical inequality shows a
    change) or its [oar_desync:<host>] flag was set or cleared.  A host
    new to the Reference API gets a row.  Returns [true] when a row was
    added or its value changed — a replaced document that induces the
    same properties does not count. *)

val get : t -> host:string -> string -> string option
(** Property lookup, e.g. [get t ~host "cluster"]. *)

val props_fun : t -> host:string -> string -> string option
(** Partially applied lookup suitable for {!Expr.eval}'s [~props]. *)

val all_of : t -> host:string -> (string * string) list
(** All properties of a host, sorted by name. *)

val hosts : t -> string list
(** Hosts with a row, sorted; kept between refreshes that leave the
    host set unchanged. *)

val expected_of_doc : Simkit.Json.t -> (string * string) list
(** Properties a Reference API document should induce — used by the
    [oarproperties] consistency check. *)

val induced_by : t -> host:string -> Simkit.Json.t -> bool
(** [induced_by t ~host doc] is [true] when the host's row was computed
    from this very document (physical equality) and carries no desync
    corruption.  Rows are a pure function of those inputs, so [all_of t
    ~host] is then exactly [expected_of_doc doc] and the [oarproperties]
    check can skip the comparison. *)
