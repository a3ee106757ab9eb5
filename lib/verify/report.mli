(** Capped message collector shared by the verifier, the oracle and the
    graph diffs. *)

type t

val create : int -> t
(** [create limit] keeps at most [limit] messages. *)

val add : t -> ('a, Format.formatter, unit, unit) format4 -> 'a
(** Count one message; format and keep it while under the limit. *)

val messages : t -> what:string -> string list
(** Kept messages in order, then "... and N further [what] suppressed"
    if any were dropped. *)
