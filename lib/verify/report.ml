(* Message collector shared by the checkers: counts every message but
   keeps only the first [limit], so a badly broken heap reports a
   digestible prefix instead of one line per object.  Only kept
   messages are formatted. *)

type t = { limit : int; mutable msgs : string list; mutable count : int }

let create limit = { limit; msgs = []; count = 0 }

let add t fmt =
  t.count <- t.count + 1;
  if t.count <= t.limit then
    Format.kasprintf (fun msg -> t.msgs <- msg :: t.msgs) fmt
  else Format.ikfprintf ignore Format.str_formatter fmt

let messages t ~what =
  let msgs = List.rev t.msgs in
  if t.count <= t.limit then msgs
  else
    msgs
    @ [ Printf.sprintf "... and %d further %s suppressed" (t.count - t.limit) what ]
