(* Pinned digests of the simulated output, and how a run's verdict on
   them turns into failed units.

   The pin file has one "<workload> <seed> <md5-hex>" line per pinned
   (workload, seed) pair; '#' starts a comment.  A digest covers every
   unit of one pass in submission order, so it is the same at any job
   count and with tracing on or off. *)

type t = ((string * int) * string) list

let parse text : t =
  String.split_on_char '\n' text
  |> List.filter_map (fun line ->
         let line =
           match String.index_opt line '#' with
           | Some i -> String.sub line 0 i
           | None -> line
         in
         match
           String.split_on_char ' ' (String.trim line)
           |> List.filter (fun s -> s <> "")
         with
         | [] -> None
         | [ workload; seed; digest ] -> (
             match int_of_string_opt seed with
             | Some seed when String.length digest = 32 ->
                 Some ((workload, seed), digest)
             | _ -> failwith ("malformed pin line: " ^ line))
         | _ -> failwith ("malformed pin line: " ^ line))

let load path = parse (In_channel.with_open_bin path In_channel.input_all)

let find (pins : t) ~workload ~seed = List.assoc_opt (workload, seed) pins

let line ~workload ~seed digest = Printf.sprintf "%s %d %s" workload seed digest

type verdict =
  | Match  (** every pass agrees with the pin *)
  | Unpinned  (** no pin for this seed; every pass agrees with the first *)
  | Mismatch of { expected : string; got : string }
  | Unstable of string list  (** passes of one run disagree *)

(* [digests] are the run's pass digests, in pass order. *)
let verdict ~pin ~digests =
  match digests with
  | [] -> invalid_arg "Pin.verdict: no passes"
  | d :: rest -> (
      if List.exists (fun d' -> d' <> d) rest then Unstable digests
      else
        match pin with
        | None -> Unpinned
        | Some p when p = d -> Match
        | Some p -> Mismatch { expected = p; got = d })

(* A digest that moved condemns every unit of the run: any of them may
   carry the difference. *)
let failed verdict ~attempted ~unit_failures =
  match verdict with
  | Match | Unpinned -> unit_failures
  | Mismatch _ | Unstable _ -> attempted

let describe = function
  | Match -> "matches the pin"
  | Unpinned -> "no pin for this seed; passes agree with each other"
  | Mismatch { expected; got } ->
      Printf.sprintf "MISMATCH: pinned %s, got %s" expected got
  | Unstable ds ->
      Printf.sprintf "UNSTABLE: passes disagree (%s)" (String.concat ", " ds)
